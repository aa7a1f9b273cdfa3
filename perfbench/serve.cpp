/**
 * @file
 * The serving workload, serve_transformer: a PerTenant MercuryServer
 * with planned execution, aging and eviction, serving the transformer
 * proxy to a closed loop of one client thread per session, one job
 * outstanding each. A fixed prefix of every tenant's jobs fixes the
 * deterministic metrics and is checked against a serial replay on a
 * private persistent MercuryContext; the timed window follows. See
 * README.md for the metric definitions.
 */

#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {
namespace {

constexpr int kClasses = 8;
constexpr int64_t kBatch = 64;
constexpr int64_t kDim = kProxySeqLen * kProxyEmbedDim; // 8 x 16 tokens
constexpr float kLr = 0.01f;
constexpr int64_t kPrefixJobs = 256; ///< per tenant, deterministic
constexpr int64_t kStreamJobs = 512; ///< pre-generated per tenant, cycled
constexpr int64_t kHeldoutJobs = 8;  ///< held-out requests per tenant
constexpr int kSetupReps = 51;
/** The timed window runs in this many served segments, each followed
 *  by an exact segment. */
constexpr int kWindowSegments = 4;
constexpr uint64_t kTrafficSeed = 4242;
constexpr uint64_t kInitSeed = 9000;
constexpr uint64_t kStreamSlots = 1024; ///< distinct seeds (seed mod)

/** Builds and keeps every served model's probe (they must outlive
 *  the models, which the servers own). */
struct TenantModels
{
    SpanRecorder &rec;
    uint64_t initSeed;
    std::mutex mutex;
    std::vector<std::unique_ptr<NetProbe>> probes; // guarded by mutex
    std::map<int, NetProbe *> latest;              // guarded by mutex

    static int64_t groupBase(int tenant)
    {
        return static_cast<int64_t>(tenant + 1) << 32;
    }

    NetPtr build(int tenant, NetProbe *probe) const
    {
        Rng rng(deriveSeed(initSeed, static_cast<uint64_t>(tenant)));
        return buildTransformer(rng, kClasses, probe);
    }

    NetPtr serve(int tenant)
    {
        auto probe =
            std::make_unique<NetProbe>(rec, "L", groupBase(tenant));
        NetPtr net = build(tenant, probe.get());
        std::lock_guard<std::mutex> lock(mutex);
        latest[tenant] = probe.get();
        probes.push_back(std::move(probe));
        return net;
    }

    NetProbe &of(int tenant)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return *latest.at(tenant);
    }
};

ServeConfig
serveConfig(int sessions, int pipe_threads, TenantModels &models)
{
    ServeConfig cfg;
    cfg.maxSessions = sessions;
    cfg.cacheMode = CacheMode::PerTenant;
    cfg.signatureBits = 16;
    cfg.sets = 256;
    cfg.ways = 16;
    cfg.dataVersions = 2;
    cfg.epochEveryJobs = 1;
    cfg.evictionWindow = 16;
    cfg.pipeline.threads = pipe_threads;
    cfg.planExecution = true;
    cfg.modelFactory = [&models](int tenant) { return models.serve(tenant); };
    return cfg;
}

JobRequest
jobOf(const TrafficRequest &req)
{
    JobRequest job;
    job.kind = req.index % 2 == 0 ? JobRequest::Kind::Train
                                  : JobRequest::Kind::Inference;
    job.rows = req.rows;
    job.labels = req.labels;
    job.lr = kLr;
    return job;
}

bool
sameStats(const ReuseStats &a, const ReuseStats &b)
{
    return a.mix.vectors == b.mix.vectors && a.mix.hit == b.mix.hit &&
           a.mix.mau == b.mix.mau && a.mix.mnu == b.mix.mnu &&
           a.macsTotal == b.macsTotal && a.macsSkipped == b.macsSkipped;
}

/** What a client keeps of one completed job. */
struct JobRecord
{
    JobResult result;
    double latencyMs = 0.0;
    double submitUs = 0.0;
    bool traced = false;
};

/**
 * One closed-loop client: submits `tenant`'s jobs from `next` on, one
 * outstanding, until `count` jobs completed or `deadline` passed. A
 * rejected submission is a failed attempt and is submitted again.
 */
struct Client
{
    SessionHandle session;
    const std::vector<JobRequest> *stream = nullptr;
    NetProbe *probe = nullptr;
    int64_t next = 0; ///< index of the tenant's next job
    FailCount fails;
    std::vector<JobRecord> done;

    void run(int64_t count, Clock::time_point deadline, bool trace,
             SpanRecorder &rec)
    {
        for (int64_t i = 0; i < count && Clock::now() < deadline; ++i) {
            const JobRequest &job =
                (*stream)[static_cast<size_t>(next) % stream->size()];
            JobRecord r;
            // Jobs alternate Train / Inference, so tracing alternates
            // in pairs: both kinds are traced and untraced alike.
            r.traced = trace && (next / 2) % 2 == 0;
            probe->setTracing(r.traced);
            const int64_t group = probe->groupOf(next);
            const double t0 = nowUs();
            SubmitStatus st;
            for (;;) {
                const double a0 = nowUs();
                st = session.submit(job);
                r.submitUs = nowUs() - a0;
                fails.record(st.accepted);
                if (st.accepted)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(st.retryAfterMs));
            }
            r.result = st.ticket->wait();
            const double t1 = nowUs();
            probe->setTracing(false);
            r.latencyMs = (t1 - t0) / 1e3;
            if (job.kind == JobRequest::Kind::Train &&
                !std::isfinite(r.result.loss))
                ++fails.failed; // the accepted attempt itself failed
            if (r.traced) {
                Span s;
                s.name = job.kind == JobRequest::Kind::Train ? "job.train"
                                                             : "job.infer";
                s.cat = "job";
                s.id = group;
                s.group = group;
                s.tid = traceTid();
                s.startUs = t0;
                s.endUs = t1;
                s.args = "\"baseline_cycles\":" +
                         std::to_string(r.result.modeledBaselineCycles) +
                         ",\"mercury_cycles\":" +
                         std::to_string(r.result.modeledMercuryCycles);
                rec.add(std::move(s));
            }
            done.push_back(std::move(r));
            ++next;
        }
    }
};

/** Run every client on its own thread until each returns. */
void
runClients(std::vector<Client> &clients, int64_t count,
           Clock::time_point deadline, bool trace, SpanRecorder &rec)
{
    std::vector<std::thread> threads;
    for (Client &c : clients)
        threads.emplace_back(
            [&c, count, deadline, trace, &rec] { c.run(count, deadline, trace, rec); });
    for (auto &t : threads)
        t.join();
}

} // namespace

void
runServing(const Options &opt, Run &run, Provenance &prov)
{
    const int sessions = std::max(1, hostThreads() / 2);
    const int pipe_threads = opt.threads > 0 ? opt.threads : 1;
    prov.threads = pipe_threads;
    prov.sessions = sessions;
    SpanRecorder rec;
    TenantModels models{rec, kInitSeed, {}, {}, {}};
    const ServeConfig cfg = serveConfig(sessions, pipe_threads, models);

    // ---- Inputs ------------------------------------------------------
    // One fixed traffic source (shared class prototypes); the seed
    // picks which of its client streams are served (S of them) and
    // which are held out (S more).
    TrafficConfig tc;
    tc.tenants = 2 * sessions * kStreamSlots;
    tc.batch = kBatch;
    tc.dim = kDim;
    tc.classes = kClasses;
    tc.temporalCorr = 0.7;
    tc.noise = 0.35f;
    tc.driftNoise = 0.02f;
    tc.seed = kTrafficSeed;
    TrafficGenerator gen(tc);
    const int first_stream =
        static_cast<int>(opt.seed % kStreamSlots) * 2 * sessions;
    std::vector<std::vector<JobRequest>> streams(static_cast<size_t>(sessions));
    std::vector<std::vector<JobRequest>> heldout(static_cast<size_t>(sessions));
    for (int t = 0; t < sessions; ++t) {
        for (int64_t i = 0; i < kStreamJobs; ++i)
            streams[static_cast<size_t>(t)].push_back(
                jobOf(gen.next(first_stream + t)));
        for (int64_t i = 0; i < kHeldoutJobs; ++i)
            heldout[static_cast<size_t>(t)].push_back(
                jobOf(gen.next(first_stream + sessions + t)));
    }

    // ---- Check: own builder == buildProxy ----------------------------
    {
        const bool same = checkBuilderParity(
            "Transformer", kClasses, models.initSeed, streams[0][0].rows,
            [&](Rng &rng, NetProbe *p) {
                return buildTransformer(rng, kClasses, p);
            },
            [&] {
                auto c = std::make_unique<MercuryContext>(
                    cfg.signatureBits, cfg.sets, cfg.ways, cfg.dataVersions,
                    cfg.seed);
                PipelineConfig pipe = cfg.pipeline;
                pipe.persistent = true;
                c->setPipeline(pipe);
                c->setPlanExecution(true);
                return c;
            },
            rec);
        std::printf("check builder parity (Transformer): %s\n",
                    same ? "ok" : "MISMATCH");
        if (!same)
            run.checkFailed("builder output differs from buildProxy");
    }

    // ---- setup_s: server and sessions up to the first jobs' end ------
    std::unique_ptr<MercuryServer> server;
    std::vector<Client> clients;
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupReps; ++r) {
        clients.clear();
        server.reset();
        const auto t0 = Clock::now();
        server = std::make_unique<MercuryServer>(cfg);
        clients.resize(static_cast<size_t>(sessions));
        std::vector<std::shared_ptr<JobTicket>> first;
        for (int t = 0; t < sessions; ++t) {
            Client &c = clients[static_cast<size_t>(t)];
            c.session = server->connect(t);
            c.stream = &streams[static_cast<size_t>(t)];
            c.probe = &models.of(t);
            SubmitStatus st = c.session.submit(c.stream->front());
            run.fails.record(st.accepted);
            first.push_back(st.ticket);
        }
        for (int t = 0; t < sessions; ++t) {
            Client &c = clients[static_cast<size_t>(t)];
            if (!first[static_cast<size_t>(t)]) {
                run.checkFailed("setup job rejected");
                continue;
            }
            JobRecord rec0;
            rec0.result = first[static_cast<size_t>(t)]->wait();
            if (!std::isfinite(rec0.result.loss))
                ++run.fails.failed;
            c.done.push_back(std::move(rec0));
            c.next = 1;
        }
        setup_s.push_back(msBetween(t0, Clock::now()) / 1e3);
    }

    // ---- Deterministic prefix ----------------------------------------
    runClients(clients, kPrefixJobs - 1, Clock::time_point::max(), false,
               rec);
    ReuseCounts counts;
    std::vector<bool> reuse_slot(clients[0].probe->size(), false);
    for (Client &c : clients) {
        for (const JobRecord &r : c.done) {
            statsAdd(counts.fwd, r.result.forward);
            statsAdd(counts.dx, r.result.backward);
            statsAdd(counts.dw, r.result.weightGrad);
            counts.baselineCycles += r.result.modeledBaselineCycles;
            counts.mercuryCycles += r.result.modeledMercuryCycles;
            ++counts.steps;
        }
        const auto layers = c.probe->harvest();
        for (size_t i = 0; i < layers.size(); ++i)
            reuse_slot[i] = reuse_slot[i] || layers[i].ranPasses();
    }

    // ---- Check: serial replay on a private persistent context --------
    // (MercuryServer's documented PerTenant equivalence), and the
    // held-out accuracy of the replayed (= served) model.
    double merc_acc = 0.0;
    bool replay_same = true;
    for (int t = 0; t < sessions; ++t) {
        const Client &c = clients[static_cast<size_t>(t)];
        NetPtr model = models.build(t, nullptr);
        MercuryContext ctx(cfg.signatureBits, cfg.sets, cfg.ways,
                           cfg.dataVersions, cfg.seed);
        PipelineConfig pipe = cfg.pipeline;
        pipe.persistent = true;
        ctx.setPipeline(pipe);
        ctx.setTenant(t);
        ctx.setPlanExecution(true);
        uint64_t epoch = 0;
        for (int64_t i = 0; i < kPrefixJobs; ++i) {
            const JobRequest &job = (*c.stream)[static_cast<size_t>(i)];
            const JobResult &served = c.done[static_cast<size_t>(i)].result;
            const ReuseStats f0 = ctx.totals();
            if (job.kind == JobRequest::Kind::Train) {
                const float loss =
                    model->trainBatch(job.rows, job.labels, job.lr, &ctx);
                replay_same = replay_same && bitEqual(loss, served.loss);
            } else {
                replay_same = replay_same &&
                              bitEqual(model->forward(job.rows, &ctx),
                                       served.output);
            }
            replay_same = replay_same &&
                          sameStats(statsMinus(ctx.totals(), f0),
                                    served.forward);
            // Mirror the server's job-count-driven aging.
            ++epoch;
            ctx.setEpoch(epoch);
            if (epoch > cfg.evictionWindow)
                ctx.evictOlderThan(epoch - cfg.evictionWindow);
        }
        for (const JobRequest &job : heldout[static_cast<size_t>(t)])
            merc_acc += model->accuracy(job.rows, job.labels, &ctx);
    }
    merc_acc /= static_cast<double>(sessions * kHeldoutJobs);
    std::printf("check serial replay of %lld jobs x %d tenants: %s\n",
                static_cast<long long>(kPrefixJobs), sessions,
                replay_same ? "ok" : "MISMATCH");
    if (!replay_same)
        run.checkFailed("served jobs differ from the serial replay");

    for (Client &c : clients)
        c.done.clear(); // from here on: the timed window's jobs

    // ---- Exact path: same models and requests, no context -----------
    // One thread per tenant, like the served clients. Its timed jobs
    // run in segments interleaved with the served window's, so both
    // paths sample the same stretch of host noise.
    std::vector<std::unique_ptr<NetProbe>> exact_probes;
    std::vector<NetPtr> exact_nets;
    for (int t = 0; t < sessions; ++t) {
        exact_probes.push_back(std::make_unique<NetProbe>(
            rec, "E", (int64_t{1} << 40) + TenantModels::groupBase(t)));
        exact_nets.push_back(models.build(t, exact_probes.back().get()));
    }
    std::vector<std::vector<double>> exact_train_ms(static_cast<size_t>(sessions));
    std::vector<std::vector<double>> exact_infer_ms(static_cast<size_t>(sessions));
    std::vector<int64_t> exact_next(static_cast<size_t>(sessions), 0);
    // Each thread runs its tenant's next jobs until `count` ran or
    // `seconds` passed, recording job times by kind.
    const auto runExact = [&](int64_t count, double seconds) {
        std::vector<std::thread> threads;
        for (int t = 0; t < sessions; ++t)
            threads.emplace_back([&, t] {
                const auto k = static_cast<size_t>(t);
                const auto end =
                    Clock::now() + std::chrono::microseconds(
                                       static_cast<int64_t>(seconds * 1e6));
                for (int64_t i = 0; i < count && Clock::now() < end; ++i) {
                    const JobRequest &job =
                        streams[k][static_cast<size_t>(exact_next[k]++) %
                                   streams[k].size()];
                    const double s0 = nowUs();
                    if (job.kind == JobRequest::Kind::Train)
                        exact_nets[k]->trainBatch(job.rows, job.labels, job.lr,
                                                  nullptr);
                    else
                        exact_nets[k]->forward(job.rows, nullptr);
                    (job.kind == JobRequest::Kind::Train ? exact_train_ms[k]
                                                         : exact_infer_ms[k])
                        .push_back((nowUs() - s0) / 1e3);
                }
            });
        for (auto &t : threads)
            t.join();
    };
    runExact(kPrefixJobs, 1e9); // the prefix the served models ran
    double exact_acc = 0.0;
    for (int t = 0; t < sessions; ++t) {
        exact_train_ms[static_cast<size_t>(t)].clear();
        exact_infer_ms[static_cast<size_t>(t)].clear();
        for (const JobRequest &job : heldout[static_cast<size_t>(t)])
            exact_acc += exact_nets[static_cast<size_t>(t)]->accuracy(
                job.rows, job.labels, nullptr);
    }
    exact_acc /= static_cast<double>(sessions * kHeldoutJobs);

    // ---- Timed window: served segments, exact segments between -----
    if (opt.trace)
        keepStageInputs(models.of(0));
    const double exact_window_s = std::max(1.0, opt.seconds / 2.0);
    double window_s = 0.0;
    Usage usage;
    for (int seg = 0; seg < kWindowSegments; ++seg) {
        const Usage u0 = Usage::now();
        const auto w0 = Clock::now();
        runClients(clients, INT64_MAX,
                   w0 + std::chrono::microseconds(static_cast<int64_t>(
                            opt.seconds / kWindowSegments * 1e6)),
                   opt.trace, rec);
        window_s += msBetween(w0, Clock::now()) / 1e3;
        usage += Usage::now() - u0;
        for (auto &p : exact_probes)
            p->setTracing(opt.trace);
        runExact(INT64_MAX, exact_window_s / kWindowSegments);
        for (auto &p : exact_probes)
            p->setTracing(false);
    }
    // Each exact thread's rate: two jobs per median Train plus median
    // Inference job, so single-threaded host hiccups do not decide it.
    double exact_jobs_s = 0.0;
    for (int t = 0; t < sessions; ++t)
        exact_jobs_s += 2e3 / (median(exact_train_ms[static_cast<size_t>(t)]) +
                               median(exact_infer_ms[static_cast<size_t>(t)]));

    std::vector<double> latency, traced, untraced, submit_us;
    for (Client &c : clients) {
        run.fails.merge(c.fails);
        for (const JobRecord &r : c.done) {
            latency.push_back(r.latencyMs);
            (r.traced ? traced : untraced).push_back(r.latencyMs);
            submit_us.push_back(r.submitUs);
        }
    }
    const int64_t jobs = static_cast<int64_t>(latency.size());
    // The stage probe needs tenant 0's served model, which its session
    // owns: run it while the (idle) sessions are still connected.
    StageTimes stages;
    if (opt.trace)
        stages = probeStages(models.of(0), cfg.sets, cfg.ways,
                             cfg.dataVersions, cfg.signatureBits, cfg.pipeline);
    for (Client &c : clients)
        c.session.disconnect();

    // ---- Metrics -----------------------------------------------------
    const double jobs_s = static_cast<double>(jobs) / window_s;
    const double samples_s = jobs_s * static_cast<double>(kBatch);
    const double exact_samples_s = exact_jobs_s * static_cast<double>(kBatch);
    const Tail tail = tailPercentile(latency);
    std::printf("serve_transformer: %d sessions, %lld jobs in %.3f s "
                "window: jobs_s %.2f 1/s\n",
                sessions, static_cast<long long>(jobs), window_s, jobs_s);
    std::printf("latency_ms_tail %.4f ms is p%g over %zu jobs (%zu beyond)\n",
                tail.value, tail.percentile, tail.samples, tail.beyond);
    std::printf("wall ratio MERCURY/exact: %.4f (MERCURY %.1f samples/s "
                "served; exact %.1f samples/s from %d threads' median "
                "jobs over %.1f s between the served segments)\n",
                samples_s / exact_samples_s, samples_s, exact_samples_s,
                sessions, exact_window_s);
    std::printf("heldout accuracy after %lld jobs: MERCURY %.4f, exact "
                "%.4f (%lld requests)\n",
                static_cast<long long>(kPrefixJobs), merc_acc, exact_acc,
                static_cast<long long>(sessions * kHeldoutJobs));

    Metrics &m = run.endToEnd;
    m.set("samples_s", samples_s, "1/s");
    m.set("latency_ms_p50", percentile(latency, 50.0), "ms");
    m.set("model_speedup", counts.modelSpeedup(), "x");
    m.set("macs_skipped_frac", counts.macsSkippedFrac(), "ratio");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    // Reported beside the per-layer metrics rather than bounded as
    // end-to-end ones (README.md): on a shared host the exact path and
    // the served tail spread too far across runs for any allowed bound,
    // and accuracy collapses on train_mobilenet_v2.
    run.perLayer.set("exact_samples_s", exact_samples_s, "1/s");
    run.perLayer.set("latency_ms_tail", tail.value, "ms");
    run.perLayer.set("heldout_acc", merc_acc, "ratio");
    run.perLayer.set("exact_heldout_acc", exact_acc, "ratio");

    prov.overlap = "off (pipeline threads 1)";
    if (!opt.trace)
        return;

    // ---- Per-layer metrics (traced run) ------------------------------
    TracedRun t;
    t.groupCat = "job";
    t.reuseSlot = reuse_slot;
    t.usage = usage;
    t.ops = jobs;
    t.traced = traced;
    t.untraced = untraced;
    t.submitUs = submit_us;
    reportTracedRun(rec.spans(), t, counts, stages, run.perLayer);
    writeTrace(opt, rec);
}

} // namespace perfbench
