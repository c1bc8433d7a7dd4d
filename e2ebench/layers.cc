#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common.hh"

using namespace qra;

namespace e2e {

// ------------------------------------------------------------------
// Span store
// ------------------------------------------------------------------

std::uint32_t
SpanRecorder::reserve(std::uint32_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint32_t first = nextId_;
    nextId_ += count;
    return first;
}

void
SpanRecorder::add(const std::vector<Span> &spans)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void
SpanRecorder::expectShards(const std::vector<runtime::Shard> &plan,
                           std::uint32_t job, std::uint32_t root)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const runtime::Shard &shard : plan)
        owners_[shard.seed] = {job, root};
}

void
SpanRecorder::shard(std::uint64_t seed, const char *name,
                    std::int64_t start_ns, std::int64_t end_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.id = nextId_++;
    span.name = name;
    span.startNs = start_ns;
    span.endNs = end_ns;
    const auto it = owners_.find(seed);
    if (it == owners_.end()) {
        ++orphans_;
    } else {
        span.job = it->second.first;
        span.parent = it->second.second;
        owners_.erase(it);
    }
    spans_.push_back(span);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    owners_.clear();
    orphans_ = 0;
}

std::size_t
SpanRecorder::orphanShards() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return orphans_;
}

// ------------------------------------------------------------------
// Traced registry
// ------------------------------------------------------------------

namespace {

/** A builtin backend that records a span around every run(). */
class TracedBackend final : public runtime::Backend
{
  public:
    TracedBackend(runtime::BackendPtr inner, SpanRecorder &recorder,
                  const char *span)
        : inner_(std::move(inner)), recorder_(recorder), span_(span)
    {
    }

    const std::string &name() const override { return inner_->name(); }

    const runtime::BackendCapabilities &capabilities() const override
    {
        return inner_->capabilities();
    }

    std::string rejectReason(const Circuit &circuit,
                             const NoiseModel *noise) const override
    {
        return inner_->rejectReason(circuit, noise);
    }

    Result run(const Circuit &circuit, std::size_t shots,
               std::uint64_t seed,
               const NoiseModel *noise) const override
    {
        const std::int64_t start = nowNs();
        Result result = inner_->run(circuit, shots, seed, noise);
        recorder_.shard(seed, span_, start, nowNs());
        return result;
    }

  private:
    runtime::BackendPtr inner_;
    SpanRecorder &recorder_;
    const char *span_;
};

} // namespace

std::unique_ptr<runtime::BackendRegistry>
tracedRegistry(SpanRecorder &recorder)
{
    auto registry = std::make_unique<runtime::BackendRegistry>();
    const std::pair<const char *, runtime::BackendPtr (*)()> builtins[] =
        {{"statevector", runtime::makeStatevectorBackend},
         {"density", runtime::makeDensityBackend},
         {"trajectory", runtime::makeTrajectoryBackend},
         {"stabilizer", runtime::makeStabilizerBackend}};
    static const char *const kSpanNames[] = {
        "sim.statevector", "sim.density", "sim.trajectory",
        "sim.stabilizer"};
    for (std::size_t i = 0; i < 4; ++i) {
        const auto make = builtins[i].second;
        const char *span = kSpanNames[i];
        registry->registerBackend(
            builtins[i].first, [make, span, &recorder] {
                return std::make_shared<TracedBackend>(make(), recorder,
                                                       span);
            });
    }
    return registry;
}

// ------------------------------------------------------------------
// Attribution
// ------------------------------------------------------------------

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

/** Sorted, merged union of @p intervals. */
std::vector<Interval>
unionOf(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::vector<Interval> merged;
    for (const Interval &iv : intervals) {
        if (iv.second <= iv.first)
            continue;
        if (!merged.empty() && iv.first <= merged.back().second)
            merged.back().second =
                std::max(merged.back().second, iv.second);
        else
            merged.push_back(iv);
    }
    return merged;
}

/** Length of [a, b) covered by the merged intervals @p u. */
std::int64_t
covered(std::int64_t a, std::int64_t b, const std::vector<Interval> &u)
{
    std::int64_t total = 0;
    for (const Interval &iv : u)
        total += std::max<std::int64_t>(
            0, std::min(b, iv.second) - std::max(a, iv.first));
    return total;
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

} // namespace

Attribution
attribute(const std::vector<Span> &spans)
{
    std::map<std::uint32_t, std::vector<const Span *>> by_job;
    for (const Span &s : spans)
        if (s.job != 0)
            by_job[s.job].push_back(&s);

    const char *const order[] = {"circuit", "compile",    "runtime",
                                 "sim",     "assertions", "unattributed"};
    std::map<std::string, LayerRow> rows;
    for (const char *layer : order)
        rows[layer].layer = layer;

    Attribution out;
    for (const auto &[job, members] : by_job) {
        const Span *root = nullptr;
        for (const Span *s : members)
            if (s->parent == 0)
                root = s;
        if (root == nullptr)
            continue;

        std::vector<Interval> shard_ivs;
        for (const Span *s : members) {
            if (layerOf(s->name) != "sim")
                continue;
            shard_ivs.emplace_back(std::max(s->startNs, root->startNs),
                                   std::min(s->endNs, root->endNs));
            out.shardBusyMs += ms(s->endNs - s->startNs);
            ++out.shards;
            ++rows["sim"].calls;
        }
        const std::vector<Interval> sim = unionOf(shard_ivs);
        const std::int64_t sim_ns =
            covered(root->startNs, root->endNs, sim);
        rows["sim"].selfMs += ms(sim_ns);

        std::int64_t children_ns = 0;
        for (const Span *c : members) {
            if (c->parent != root->id || layerOf(c->name) == "sim")
                continue;
            std::int64_t self = c->endNs - c->startNs;
            children_ns += self;
            self -= covered(c->startNs, c->endNs, sim);
            for (const Span *g : members) {
                if (g->parent != c->id)
                    continue;
                const std::int64_t g_self =
                    (g->endNs - g->startNs) -
                    covered(g->startNs, g->endNs, sim);
                self -= g_self;
                rows[layerOf(g->name)].selfMs += ms(g_self);
                ++rows[layerOf(g->name)].calls;
            }
            rows[layerOf(c->name)].selfMs += ms(self);
            ++rows[layerOf(c->name)].calls;
        }
        const std::int64_t wall = root->endNs - root->startNs;
        rows["unattributed"].selfMs += ms(wall - children_ns);
        ++rows["unattributed"].calls;
        out.baseMs += ms(wall);
        ++out.jobs;
    }

    for (const char *layer : order) {
        LayerRow row = rows[layer];
        row.share = out.baseMs > 0.0 ? row.selfMs / out.baseMs : 0.0;
        out.rows.push_back(row);
    }
    return out;
}

bool
writeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::int64_t t0 = 0;
    for (const Span &s : spans)
        if (t0 == 0 || s.startNs < t0)
            t0 = s.startNs;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%u,\"parent\":%u,\"job\":%u}}%s\n",
                      s.name, layerOf(s.name).c_str(), s.job,
                      static_cast<double>(s.startNs - t0) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3,
                      s.id, s.parent, s.job,
                      i + 1 < spans.size() ? "," : "");
        os << buf;
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

// ------------------------------------------------------------------
// Isolation probes
// ------------------------------------------------------------------

namespace {

/** Microseconds one call of @p fn takes. */
template <typename Fn>
double
timeUs(Fn &&fn)
{
    const std::int64_t start = nowNs();
    fn();
    return static_cast<double>(nowNs() - start) / 1e3;
}

/** The probes' name for the injection pass of a pipeline. */
std::string
passMetric(const std::string &pass)
{
    if (pass == "instrument" || pass == "auto-assert" ||
        pass == "inject-postlayout")
        return "inject";
    return pass;
}

} // namespace

ProbeReport
probe(const ProbeTarget &target, const std::vector<const KeptJob *> &jobs,
      double expensive_budget_s)
{
    const Workload &wl = *target.workload;
    const NoiseModel *noise =
        target.models->noise ? &*target.models->noise : nullptr;
    const std::string backend_name = wl.backend();
    const runtime::BackendPtr backend =
        runtime::BackendRegistry::global().create(backend_name);

    std::vector<double> analyze_us, lower_us, stop_us, swaps, per_shot;
    std::map<std::string, std::vector<double>> pass_us;
    std::vector<double> wait_ms, isolated_ms, backend_ms, density_ms;
    const std::int64_t expensive_start = nowNs();

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const KeptJob &job = *jobs[j];
        const Circuit &payload = job.spec.circuit;

        analyze_us.push_back(timeUs(
            [&] { (void)compile::analysis::analyzeCircuit(payload); }));

        // The job's own pipeline, one single-pass PassManager at a
        // time over a shared context.
        const compile::PassManager pipeline =
            compile::preparePipeline(runtime::prepareSpec(job.spec));
        compile::CompileContext ctx;
        ctx.circuit = payload;
        ctx.coupling = job.spec.coupling;
        std::map<std::string, double> this_job;
        for (const compile::PassPtr &pass : pipeline.passes()) {
            compile::PassManager single;
            single.add(pass);
            this_job[passMetric(pass->name())] +=
                timeUs([&] { single.run(ctx); });
        }
        for (const auto &[name, us] : this_job)
            pass_us[name].push_back(us);
        swaps.push_back(static_cast<double>(ctx.insertedSwaps));
        per_shot.push_back(needsPerShot(ctx.circuit) ? 1.0 : 0.0);

        const Circuit &compiled = ctx.circuit;
        if (backend_name == "trajectory")
            lower_us.push_back(timeUs([&] {
                (void)kernels::TrajectoryPlan::compile(compiled, noise);
            }));
        else
            lower_us.push_back(timeUs(
                [&] { (void)kernels::ExecutablePlan::compile(compiled); }));

        runtime::StoppingRule rule;
        rule.statistic = runtime::StoppingRule::Statistic::AnyError;
        rule.targetHalfWidth = 0.01;
        std::vector<double> reps;
        for (int r = 0; r < 5; ++r)
            reps.push_back(timeUs([&] {
                (void)runtime::evaluateStopping(rule, job.result,
                                                ctx.instrumented.get());
            }));
        stop_us.push_back(median(reps));

        // Expensive probes: at least one job, then while the budget
        // lasts.
        const double spent =
            static_cast<double>(nowNs() - expensive_start) / 1e9;
        if (j > 0 && spent > expensive_budget_s)
            continue;
        runtime::Job isolated(compiled, job.spec.shots, backend_name,
                              job.spec.seed, noise);
        isolated.artifacts = target.artifacts;
        isolated.stopping = job.spec.stopping;
        isolated.instrumented = ctx.instrumented;
        const double iso_ms =
            timeUs([&] {
                if (isolated.stopping.enabled())
                    (void)target.engine->runAdaptive(isolated);
                else
                    (void)target.engine->run(isolated);
            }) /
            1e3;
        isolated_ms.push_back(iso_ms);
        wait_ms.push_back(job.latencyMs - iso_ms);
        backend_ms.push_back(timeUs([&] {
                                 (void)backend->run(compiled,
                                                    job.result.shots(),
                                                    job.spec.seed, noise);
                             }) /
                             1e3);
        if (backend_name == "density") {
            DensityMatrixSimulator sim(job.spec.seed);
            sim.setNoiseModel(noise);
            density_ms.push_back(
                timeUs([&] {
                    (void)sim.run(compiled, job.result.shots());
                }) /
                1e3);
        }
    }

    ProbeReport report;
    auto &m = report.metrics;
    m["compile.analyze_us"] = median(analyze_us);
    for (const char *pass : {"inject", "decompose", "layout", "route",
                             "direction-fix", "optimize"}) {
        const auto it = pass_us.find(pass);
        m[std::string("compile.") + pass + "_us"] =
            it == pass_us.end() ? 0.0 : median(it->second);
    }
    for (const auto &[name, us] : pass_us)
        report.passUs[name] = median(us);
    m["compile.swaps_inserted"] = mean(swaps);
    m["sim.per_shot_frac"] = mean(per_shot);
    m["sim.lower_us"] = median(lower_us);
    m["runtime.stopping_eval_us"] = median(stop_us);
    m["runtime.wait_ms"] = median(wait_ms);
    m["sim.backend_ms"] = median(backend_ms);

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "probes: %zu jobs (cheap), %zu (isolated engine + "
                  "single-threaded %s backend run; median isolated "
                  "engine run %.3f ms)",
                  jobs.size(), isolated_ms.size(), backend_name.c_str(),
                  median(isolated_ms));
    report.notes.push_back(buf);
    if (!density_ms.empty()) {
        m["sim.density_ms"] = median(density_ms);
        std::snprintf(buf, sizeof buf,
                      "sim.density_ms (DensityMatrixSimulator::run, "
                      "direct) %.4f ms over %zu jobs",
                      median(density_ms), density_ms.size());
        report.notes.push_back(buf);
    }
    return report;
}

} // namespace e2e
