// Benchmark driver: runs one workload against the simulator's public
// API and prints raw measurements as JSON lines, one record per line.
// perfbench/run.py builds this program, runs it, checks the outputs
// and reduces the records to the benchmark's metrics.
//
//   perfbench_driver --workload W --seed S --seconds T --trace 0|1
//                    [--nodes N] [--spans PATH]
//
// Every timed operation runs on a freshly built Network. Set-up (the
// Network constructor, the key scheme and, for the service, the
// Dispatcher) is timed apart from the measured run. Untraced, the
// driver repeats the measured operation until at least T seconds of
// it are recorded (see run_untraced for the bounds on the count) and
// samples set-up repeatedly between operations. Traced, it
// runs the operation once plainly, once under instrumentation (spans
// around each call, a forwarding key scheme that counts and times key
// derivation) and, for sharded workloads, once more at shards=1 on the
// same deployment as the engine's reference; the per-layer numbers
// come from the instrumented operation.
//
// --nodes shrinks a workload for quick checks; its numbers are not
// comparable with the workload's own.
#include <malloc.h>
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/adversary.h"
#include "core/icpda.h"
#include "net/network.h"
#include "service/dispatcher.h"
#include "sim/scheduler.h"

namespace {

using namespace icpda;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---- Workloads -------------------------------------------------------

enum class Kind { kEpoch, kAttack, kService };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t nodes;
  std::size_t shards;
  /// NetworkConfig seed of a fixed deployment, or 0 to take --seed.
  /// The work of one epoch swings widely between deployments (at
  /// N=20k from 3 s to 20 s, from benign alarm floods; at N=2k under
  /// attack, peak RSS from 130 MB to 250 MB), far more than any run
  /// can average, so the benchmark workloads keep one deployment and
  /// --seed varies the readings only (NOTES.md).
  std::uint64_t deployment_seed;
};

constexpr Workload kWorkloads[] = {
    {"epoch_20k_single", Kind::kEpoch, 20000, 1, 1},
    {"epoch_20k_sharded", Kind::kEpoch, 20000, 4, 1},
    {"service_400n_100q", Kind::kService, 400, 1, 0},
    {"attack_2k_serialized", Kind::kAttack, 2000, 4, 1},
};

constexpr std::uint32_t kServiceQueries = 100;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nodes = 0;
  std::string spans_path;
};

/// Constant paper density (400 nodes on 400 m x 400 m, 50 m range):
/// a square field 20*sqrt(N) m on a side. N=400 is the paper's field.
net::NetworkConfig deployment(const Options& o, std::size_t shards) {
  net::NetworkConfig cfg;
  cfg.node_count = o.nodes;
  const double side = 20.0 * std::sqrt(static_cast<double>(o.nodes));
  cfg.field_width_m = side;
  cfg.field_height_m = side;
  cfg.seed = o.workload->deployment_seed != 0 ? o.workload->deployment_seed : o.seed;
  cfg.shards = shards;
  return cfg;
}

/// Every sensor reads the same integer, 1..8, picked by --seed. A
/// constant makes the exact answer known (sum = reading * count), and
/// an integer keeps the protocol on its exact-integer solver path.
double reading(const Options& o) { return static_cast<double>(1 + o.seed % 8); }

// ---- Instrumentation (traced runs only) -------------------------------

/// In-memory span log: one span per benchmark-side call into the
/// simulator, written out when the driver exits.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  int open(const char* name) {
    spans_.push_back({name, now_ns(), -1, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    current_ = s.parent;
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  bool write(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Forwarding KeyScheme: counts and times every call into the wrapped
/// scheme. Sharded drains call it from worker threads, so each thread
/// accumulates into its own slot; totals() sums the slots once the
/// run has returned.
class TimedKeys final : public crypto::KeyScheme {
 public:
  struct Totals {
    std::uint64_t link_key_calls = 0;
    std::uint64_t link_keys_calls = 0;
    std::uint64_t ns = 0;
  };

  explicit TimedKeys(const crypto::KeyScheme& inner) : inner_(inner) {
    static std::uint64_t next_id = 0;
    id_ = ++next_id;
  }

  std::optional<crypto::Key> link_key(net::NodeId a, net::NodeId b) const override {
    Totals& acc = local();
    const auto t0 = Clock::now();
    auto key = inner_.link_key(a, b);
    acc.ns += static_cast<std::uint64_t>((Clock::now() - t0).count());
    ++acc.link_key_calls;
    return key;
  }

  void link_keys(net::NodeId self, std::span<const net::NodeId> peers,
                 std::vector<std::optional<crypto::Key>>& out) const override {
    Totals& acc = local();
    const auto t0 = Clock::now();
    inner_.link_keys(self, peers, out);
    acc.ns += static_cast<std::uint64_t>((Clock::now() - t0).count());
    ++acc.link_keys_calls;
  }

  bool third_party_can_read(net::NodeId a, net::NodeId b,
                            net::NodeId c) const override {
    return inner_.third_party_can_read(a, b, c);
  }

  Totals totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    Totals t;
    for (const auto& s : slots_) {
      t.link_key_calls += s->link_key_calls;
      t.link_keys_calls += s->link_keys_calls;
      t.ns += s->ns;
    }
    return t;
  }

 private:
  Totals& local() const {
    // Keyed by instance id, not address: a later TimedKeys may reuse
    // this one's address while a pool thread still caches the slot.
    thread_local std::uint64_t owner = 0;
    thread_local Totals* slot = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Totals>());
      slot = slots_.back().get();
      owner = id_;
    }
    return *slot;
  }

  const crypto::KeyScheme& inner_;
  std::uint64_t id_ = 0;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Totals>> slots_;
};

// ---- Process probes ----------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Bytes the allocator currently has handed out. Unlike RSS this does
/// not depend on whether freed pages of an earlier run are reused.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Threads of this process, or 0 where /proc is not available.
std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

// ---- Records -------------------------------------------------------------

/// One JSON object per line; fields appended in call order.
class Record {
 public:
  explicit Record(const char* kind) { s_ = std::string("{\"rec\": \"") + kind + "\""; }
  Record& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Record& u64(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Record& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Record& str(const char* key, const char* v) {
    return raw(key, std::string("\"") + v + "\"");
  }
  void print() const { std::printf("%s}\n", s_.c_str()); }

 private:
  Record& raw(const char* key, const std::string& v) {
    s_ += std::string(", \"") + key + "\": " + v;
    return *this;
  }
  std::string s_;
};

// ---- One operation -----------------------------------------------------

/// Instrumentation for one traced operation; null members when untraced.
struct Probe {
  Spans* spans = nullptr;
  const TimedKeys* keys = nullptr;
};

/// Opens a span only when tracing.
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), id_(spans ? spans->open(name) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

core::IcpdaConfig epoch_config(Kind kind) {
  core::IcpdaConfig cfg;
  if (kind == Kind::kAttack) {
    // bench_attack's hardened pollution cell: freshness tags plus the
    // pollution class's own countermeasure.
    cfg.timing.close_slack_s = 2.5;
    cfg.hardening.epoch_tag = 1;
    cfg.hardening.digest_crosscheck = true;
  }
  return cfg;
}

service::ServiceConfig service_config(std::uint64_t seed) {
  service::ServiceConfig cfg;
  cfg.offered_load_qps = 0.4;
  cfg.query_count = kServiceQueries;
  cfg.max_in_flight = 4;
  // Large enough that nothing is dropped or rejected: every run does
  // the same fixed work.
  cfg.max_queue = kServiceQueries;
  cfg.deadline_s = 1e6;
  cfg.seed = seed;
  return cfg;
}

/// Layer counters of one finished, instrumented run on `net`.
void layer_fields(Record& r, net::Network& net, const TimedKeys& keys) {
  const sim::MetricRegistry& m = net.metrics();
  for (const char* c :
       {"channel.tx_frames", "channel.rx_ok", "channel.rx_collided", "channel.rx_lost",
        "channel.rx_halfduplex", "mac.tx_attempts", "mac.tx_ok", "mac.cs_busy",
        "icpda.share_sent", "icpda.report_merged", "service.instance_created",
        "service.frame_retired_query"}) {
    r.u64(c, m.counter(c));
  }
  const net::Network::Footprint fp = net.footprint();
  r.u64("fp.topology", fp.topology)
      .u64("fp.schedulers", fp.schedulers)
      .u64("fp.channel", fp.channel)
      .u64("fp.macs", fp.macs)
      .u64("fp.metrics", fp.metrics)
      .u64("fp.plan", fp.plan)
      .u64("fp.objects", fp.objects);
  if (const net::ShardEngine* engine = net.shard_engine()) {
    const net::ShardEngine::Stats& st = engine->stats();
    r.u64("engine.rounds", st.rounds)
        .u64("engine.gate_rounds", st.gate_rounds)
        .u64("engine.gate_events", st.gate_events)
        .u64("engine.parallel_events", st.parallel_events)
        .u64("plan.border_nodes", net.shard_plan().border_count)
        .num("plan.balance", net.shard_plan().balance());
  }
  const TimedKeys::Totals k = keys.totals();
  r.u64("crypto.link_key_calls", k.link_key_calls)
      .u64("crypto.link_keys_calls", k.link_keys_calls)
      .num("crypto.key_s", static_cast<double>(k.ns) * 1e-9);
}

void outcome_fields(Record& r, const core::IcpdaOutcome& out) {
  r.flag("has_result", out.result.has_value())
      .num("count", out.result ? out.result->count : 0.0)
      .num("sum", out.result ? out.result->sum : 0.0)
      .u64("significant_alarms", out.significant_alarms)
      .u64("alarms", out.alarms.size())
      .u64("heads", out.heads)
      .u64("clusters_failed", out.clusters_failed)
      .u64("compromised", out.compromised_nodes)
      .u64("crosscheck_alarms", out.crosscheck_alarms);
}

/// Set-up only: build what one operation needs, time it, tear it down.
double setup_sample(const Options& o) {
  const Workload& w = *o.workload;
  const auto t0 = Clock::now();
  const auto keys = bench::default_keys();
  net::Network net(deployment(o, w.shards));
  if (w.kind != Kind::kService) return since(t0, Clock::now());
  const service::Dispatcher d(net, service_config(o.seed), &keys,
                              proto::constant_reading(reading(o)));
  return since(t0, Clock::now());
}

/// One epoch (benign or adversarial) on a fresh Network. Prints an
/// "op" record; returns its measured wall seconds.
double epoch_op(const Options& o, std::size_t shards, const char* role,
                const Probe& probe) {
  const Workload& w = *o.workload;
  std::optional<net::Network> net;
  {
    Scope s(probe.spans, "net.Network");
    net.emplace(deployment(o, shards));
  }
  const auto base = bench::default_keys();
  const crypto::KeyScheme& keys =
      probe.keys ? static_cast<const crypto::KeyScheme&>(*probe.keys) : base;
  const core::IcpdaConfig cfg = epoch_config(w.kind);

  sim::reset_lineage_cmp_stats();
  const double cpu0 = cpu_seconds();
  const auto t1 = Clock::now();
  core::IcpdaOutcome out;
  {
    Scope s(probe.spans, "core.run_icpda_epoch");
    if (w.kind == Kind::kAttack) {
      core::AdversaryPlan plan;
      plan.attack = core::AttackClass::kPollution;
      plan.compromise_fraction = 0.02;
      core::AdversaryState adv;
      out = core::run_icpda_epoch(*net, cfg, proto::constant_reading(reading(o)),
                                  keys, plan, adv);
    } else {
      out = core::run_icpda_epoch(*net, cfg, proto::constant_reading(reading(o)), keys);
    }
  }
  const double wall_s = since(t1, Clock::now());
  const double cpu_s = cpu_seconds() - cpu0;
  const sim::LineageCmpStats lineage = sim::lineage_cmp_stats();

  Record r("op");
  r.str("role", role)
      .u64("shards", net->shard_count())
      .num("wall_s", wall_s)
      .num("cpu_s", cpu_s)
      .u64("nodes", net->size())
      .u64("live_sensors", net->live_count() - 1)
      .u64("events", net->executed_events());
  outcome_fields(r, out);
  const net::ShardEngine* engine = net->shard_engine();
  r.u64("lookahead_violations", engine ? engine->stats().lookahead_violations : 0)
      .u64("lineage_undecided", lineage.undecided)
      .u64("lineage_peak", lineage.peak)
      .u64("max_rss_kb", static_cast<std::uint64_t>(max_rss_kb()));
  if (probe.keys != nullptr) layer_fields(r, *net, *probe.keys);
  {
    Scope s(probe.spans, "net.~Network");
    net.reset();
  }
  r.u64("heap_after_teardown_b", heap_in_use())
      .u64("threads_after_teardown", thread_count())
      .print();
  return wall_s;
}

/// One service run (kServiceQueries queries) on a fresh Network. Prints
/// one "query" record per query and an "op" record for the run.
double service_op(const Options& o, const char* role, const Probe& probe) {
  std::optional<net::Network> net;
  {
    Scope s(probe.spans, "net.Network");
    net.emplace(deployment(o, 1));
  }
  const auto base = bench::default_keys();
  const crypto::KeyScheme& keys =
      probe.keys ? static_cast<const crypto::KeyScheme&>(*probe.keys) : base;
  std::optional<service::Dispatcher> dispatcher;
  {
    Scope s(probe.spans, "service.Dispatcher");
    dispatcher.emplace(*net, service_config(o.seed), &keys,
                       proto::constant_reading(reading(o)));
  }

  const std::size_t heap_before = heap_in_use();
  sim::reset_lineage_cmp_stats();
  const double cpu0 = cpu_seconds();
  const auto t1 = Clock::now();
  {
    Scope s(probe.spans, "service.Dispatcher::run");
    dispatcher->run();
  }
  const double wall_s = since(t1, Clock::now());
  const double cpu_s = cpu_seconds() - cpu0;
  // Per-query instances are never freed mid-run, so the end-of-run
  // heap is the run's peak.
  const std::size_t heap_after = heap_in_use();

  const auto& records = dispatcher->records();
  double queue_wait = 0.0;
  std::uint32_t completed = 0;
  for (const service::CompletionRecord& q : records) {
    Record r("query");
    r.u64("id", q.id)
        .u64("kind", static_cast<std::uint64_t>(q.kind))
        .flag("completed", q.status == service::QueryStatus::kCompleted)
        .flag("accepted", q.accepted)
        .num("abs_error", q.abs_error)
        .num("value", q.value)
        .num("coverage", q.coverage)
        .num("latency_s", q.latency_s);
    outcome_fields(r, q.outcome);
    r.print();
    if (q.status == service::QueryStatus::kCompleted) {
      queue_wait += (q.launched - q.arrival).seconds();
      ++completed;
    }
  }

  Record r("op");
  r.str("role", role)
      .u64("shards", 1)
      .num("wall_s", wall_s)
      .num("cpu_s", cpu_s)
      .u64("nodes", net->size())
      .u64("live_sensors", net->live_count() - 1)
      .u64("events", net->executed_events())
      .u64("lookahead_violations", 0)  // the Dispatcher runs unsharded
      .u64("lineage_undecided", sim::lineage_cmp_stats().undecided)
      .u64("lineage_peak", sim::lineage_cmp_stats().peak)
      .u64("queries", records.size())
      .num("sim_p50_s", service::latency_percentile(records, 50.0))
      .num("sim_p99_s", service::latency_percentile(records, 99.0))
      .num("sim_queue_wait_mean_s", completed ? queue_wait / completed : 0.0)
      .u64("heap_growth_b", heap_after > heap_before ? heap_after - heap_before : 0)
      .u64("max_rss_kb", static_cast<std::uint64_t>(max_rss_kb()));
  if (probe.keys != nullptr) layer_fields(r, *net, *probe.keys);
  {
    Scope s(probe.spans, "service.~Dispatcher");
    dispatcher.reset();
  }
  {
    Scope s(probe.spans, "net.~Network");
    net.reset();
  }
  r.u64("heap_after_teardown_b", heap_in_use())
      .u64("threads_after_teardown", thread_count())
      .print();
  return wall_s;
}

double run_op(const Options& o, std::size_t shards, const char* role,
              const Probe& probe) {
  return o.workload->kind == Kind::kService ? service_op(o, role, probe)
                                            : epoch_op(o, shards, role, probe);
}

// ---- Modes -----------------------------------------------------------------

/// Set-up samples: at least `min_samples`, then more until `budget_s`
/// of set-up work is recorded (capped), so a sub-millisecond set-up
/// still gets a median over many samples.
void sample_setup(const Options& o, Spans* spans, int min_samples, double budget_s,
                  int max_samples) {
  double total = 0.0;
  for (int i = 0; i < max_samples && (i < min_samples || total < budget_s); ++i) {
    double s = 0.0;
    if (spans != nullptr) {
      // Traced: the Network constructor alone, as its own span.
      const int id = spans->open("net.Network");
      std::optional<net::Network> net;
      net.emplace(deployment(o, o.workload->shards));
      s = spans->close(id);
      const int td = spans->open("net.~Network");
      net.reset();
      spans->close(td);
    } else {
      s = setup_sample(o);
    }
    total += s;
    Record("setup").num("s", s).print();
  }
}

int run_untraced(const Options& o) {
  // At least 5 operations, so the median shrugs off a host stall that
  // slows two of them several-fold (seen on sharded runs, NOTES.md).
  // Past 4x the asked time, stop anyway: a run must end in its limit.
  // Set-up is sampled in a batch before each operation and once after
  // the last, so its samples span the run's whole window as the
  // operations do: host speed drifts over tens of seconds (NOTES.md).
  constexpr int kMinOps = 5;
  double measured = 0.0;
  for (int i = 0; (i < kMinOps || measured < o.seconds) && measured < 4.0 * o.seconds;
       ++i) {
    sample_setup(o, nullptr, 2, 0.2, 400);
    measured += run_op(o, o.workload->shards, "measured", Probe{});
  }
  sample_setup(o, nullptr, 2, 0.2, 400);
  return 0;
}

int run_traced(const Options& o) {
  const Workload& w = *o.workload;
  Spans spans;
  const int root = spans.open(w.name);
  sample_setup(o, &spans, 9, 0.5, 200);
  // Plain run first: its wall is the trace-overhead base, and its
  // counts must equal the instrumented run's.
  {
    const int id = spans.open("plain");
    run_op(o, w.shards, "plain", Probe{});
    spans.close(id);
  }
  const auto base = bench::default_keys();
  {
    const TimedKeys keys(base);
    const int id = spans.open("traced");
    run_op(o, w.shards, "traced", Probe{&spans, &keys});
    spans.close(id);
  }
  if (w.shards > 1) {
    const TimedKeys keys(base);
    const int id = spans.open("reference_shards1");
    run_op(o, 1, "reference", Probe{&spans, &keys});
    spans.close(id);
  }
  spans.close(root);
  if (!o.spans_path.empty() && !spans.write(o.spans_path.c_str())) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.spans_path.c_str());
    return 1;
  }
  return 0;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s < '0' || *s > '9' || errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed S --seconds T --trace 0|1 "
               "[--nodes N] [--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) o.workload = &w;
      }
      if (o.workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", val);
        return 2;
      }
    } else if (flag == "--seed" && parse_u64(val, v)) {
      o.seed = v;
    } else if (flag == "--seconds" && parse_u64(val, v) && v > 0) {
      o.seconds = static_cast<double>(v);
    } else if (flag == "--trace" && parse_u64(val, v) && v <= 1) {
      o.trace = v == 1;
    } else if (flag == "--nodes" && parse_u64(val, v) && v >= 2) {
      o.nodes = static_cast<std::size_t>(v);
    } else if (flag == "--spans") {
      o.spans_path = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload == nullptr || argc % 2 == 0) return usage(argv[0]);
  if (o.nodes == 0) o.nodes = o.workload->nodes;

  Record("meta")
      .str("workload", o.workload->name)
      .u64("seed", o.seed)
      .u64("deployment_seed", deployment(o, 1).seed)
      .num("reading", reading(o))
      .u64("nodes", o.nodes)
      .u64("shards", o.workload->shards)
      .u64("nproc", std::thread::hardware_concurrency())
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .print();
  const int rc = o.trace ? run_traced(o) : run_untraced(o);
  Record("proc").u64("max_rss_kb", static_cast<std::uint64_t>(max_rss_kb())).print();
  return rc;
}
