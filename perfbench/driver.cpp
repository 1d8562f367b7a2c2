// perfbench_driver — runs one benchmark workload of the repository benchmark
// and prints its result as one JSON line (perfbench/run.py is the entry
// point; see perfbench/README.md for the workloads and metrics).
//
//   perfbench_driver --workload validate|groundtruth|explore --seed N
//                    --phase setup|measure --work DIR [--seconds S] [--trace 0|1]
//
// `--phase setup` prepares what a user pays for once (the library profile,
// the explore artifact store); run.py times it. `--phase measure` runs
// closed-loop passes of the workload for --seconds and reports the median
// pass wall time, peak RSS, selection quality and the failure count. With
// --trace 1 it alternates untraced passes with traced ones: a traced pass
// times every layer from outside (on groundtruth by composing the public
// calls runSweep makes, elsewhere by wrapping the plain calls and importing
// the program's own spans from inside them), checks that its reports are
// byte-identical, and the run reports per-layer metrics instead.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "artifact/blob.h"
#include "artifact/cache.h"
#include "artifact/sha256.h"
#include "bet/builder.h"
#include "core/backend.h"
#include "core/framework.h"
#include "hotspot/hotspot.h"
#include "hotspot/quality.h"
#include "machine/grid.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "parallel/pool.h"
#include "roofline/estimate.h"
#include "search/report.h"
#include "search/search.h"
#include "search/space.h"
#include "sim/profile_report.h"
#include "sim/simulator.h"
#include "support/diagnostics.h"
#include "support/log.h"
#include "support/text.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "telemetry/telemetry.h"
#include "trace/cache_model.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "translate/annotate.h"
#include "translate/translate.h"
#include "vm/compiler.h"
#include "vm/interp.h"
#include "vm/profile.h"
#include "workloads/workloads.h"

using namespace skope;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definitions. Pool sizes are fixed (never auto-detected) so a run
// does the same work on any box with at least kThreads cores.

constexpr int kThreads = 4;
const hotspot::SelectionCriteria kCriteria{0.90, 0.45};  // both CLIs' defaults

// validate: the paper's experiment, every bundled workload on both machines.
const std::vector<std::string> kValidateWorkloads = {"sord", "chargei", "srad", "cfd",
                                                     "stassuij"};
// groundtruth: replay-based quality over a grid whose 12 configs all have
// distinct (L1, LLC) geometries, so the geometry memo never hits.
const std::vector<std::string> kGroundTruthWorkloads = {"chargei", "srad", "cfd"};
const char* kGroundTruthGrid = "l1kb=8,16,32,64; llcmb=4,8,16";
// explore: warm, VM-free design-space search over a priced space whose
// lattice shares a handful of cache geometries (high memo hit rate).
const std::vector<std::string> kExploreWorkloads = {"chargei", "srad", "cfd"};
const char* kExploreSpace =
    "freq=1.2:3.2:0.4; cores=4:64:*2; membw=15:240:*2; mlp=2,4,8; l1kb=16,32,64; "
    "llcmb=8,16,32; cost = cores*freq/4 + membw/16 + mlp + l1kb/16 + llcmb/4";

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One generated program input: a bundled workload's source and parameters
/// with a rand() seed derived from the benchmark seed.
struct Input {
  std::string name;
  const workloads::Workload* workload = nullptr;
  uint64_t seed = 0;
};

std::vector<Input> makeInputs(const std::vector<std::string>& names, uint64_t benchSeed) {
  std::vector<Input> out;
  for (const std::string& n : names) {
    for (const workloads::Workload* w : workloads::allWorkloads()) {
      std::string lower;
      for (char c : w->name) lower += static_cast<char>(std::tolower(c));
      if (lower != n) continue;
      uint64_t h = benchSeed;
      for (char c : n) h = splitmix64(h ^ static_cast<uint8_t>(c));
      out.push_back({n, w, h & 0xffffffffULL});
    }
  }
  if (out.size() != names.size()) throw Error("perfbench: unknown bundled workload");
  return out;
}

// ---------------------------------------------------------------------------
// Span recording for the traced run. Spans are kept in memory and written
// out when the run ends. The layer of a span is its name up to the first '.'.

struct SpanRec {
  std::string name;
  int64_t start = 0;  ///< ns since the log's epoch
  int64_t end = 0;
  int thread = 0;     ///< per-process thread index (imported tracks: 1000 + tid)
  bool opaque = false;  ///< the benchmark cannot split this call from outside
  int parent = -1;    ///< filled by assignParents()
};

std::atomic<int> gNextThread{1};
thread_local int tThread = -1;

int threadIndex() {
  if (tThread < 0) tThread = gNextThread.fetch_add(1);
  return tThread;
}

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  [[nodiscard]] int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }

  void add(SpanRec s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<SpanRec> take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRec> out;
    out.swap(spans_);
    return out;
  }

 private:
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span around one public call; a no-op when `log` is null (untraced).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, bool opaque = false)
      : log_(log), name_(name), opaque_(opaque), start_(log ? log->now() : 0) {}
  ~Scope() {
    if (log_ == nullptr) return;
    log_->add({name_, start_, log_->now(), threadIndex(), opaque_, -1});
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  bool opaque_;
  int64_t start_;
};

template <class F>
auto timed(SpanLog* log, const char* name, F&& f) {
  Scope s(log, name);
  return f();
}

/// Tolerance when nesting imported spans: the registry-to-log clock offset is
/// read once, a few microseconds after the fact.
constexpr int64_t kSlackNs = 20000;

/// The program's own telemetry span names, mapped onto benchmark span names.
/// Used only inside calls the benchmark wraps whole (the WorkloadFrontend
/// constructor, CodesignFramework::analyze / hotPathReport, runSearch and
/// runSweep on explore).
const char* importedName(std::string_view n) {
  static const std::map<std::string_view, const char*> table = {
      // Self time: the key hash, plus the blob load when a store is set.
      {"frontend/build", "artifact.load"},
      {"frontend/parse", "frontend.parse"},
      {"frontend/sema", "frontend.sema"},
      {"frontend/compile", "frontend.compile"},
      // Self time: the trace recorder's finish around vm/profile-run.
      {"frontend/profile", "trace.record"},
      {"vm/profile-run", "vm.profile_run"},
      {"frontend/skeleton", "frontend.skeleton"},
      {"frontend/bet", "frontend.bet"},
      {"frontend/lib-profile", "frontend.lib_profile"},
      {"search/run", "search.run"},
      {"sweep/prepare-layer-cond", "cachemodel.layercond_build"},
      {"sweep/prepare-cache-model", "trace.cache_model_prepare"},
      {"sweep/base-eval", "roofline.base_eval"},
      {"backend/batched-roofline", "cachemodel.layercond_eval"},  // self: memo loop
      {"roofline/factorize", "roofline.factorize"},
      {"roofline/estimate-grid", "roofline.combine"},
      {"roofline/estimate", "roofline.estimate"},
      {"sweep/fan-out", "sweep.fanout"},
      {"backend/roofline", "roofline.estimate"},
      {"backend/hotspot", "hotspot.select"},
      {"backend/hotpath", "hotpath.extract"},
      {"backend/ground-truth", "trace.replay_sim"},
      {"trace/replay", "trace.replay_sim"},
      {"sim/run", "sim.run"},
  };
  if (n.rfind("config/", 0) == 0) return "sweep.config";
  auto it = table.find(n);
  return it == table.end() ? "other.unmapped" : it->second;
}

/// Appends the telemetry registry's spans that fall inside an opaque span to
/// `spans`, converted to the log's clock.
void importOpaqueInternals(const telemetry::Registry& reg, const SpanLog& log,
                           std::vector<SpanRec>& spans) {
  std::vector<std::pair<int64_t, int64_t>> windows;
  for (const SpanRec& s : spans) {
    if (s.opaque) windows.emplace_back(s.start, s.end);
  }
  if (windows.empty()) return;
  // registry ns -> log ns
  const int64_t offset =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - log.epoch())
          .count() -
      static_cast<int64_t>(reg.nowNs());
  // Registry thread ids are distinct from the log's; keep them apart.
  constexpr int kImportedThreadBase = 1000;
  for (const telemetry::ThreadTrack& track : reg.spanTracks()) {
    for (const telemetry::SpanEvent& ev : track.events) {
      int64_t start = static_cast<int64_t>(ev.startNs) + offset;
      int64_t end = start + static_cast<int64_t>(ev.durNs);
      bool inside = std::any_of(windows.begin(), windows.end(), [&](const auto& w) {
        return start >= w.first - kSlackNs && end <= w.second + kSlackNs;
      });
      if (!inside) continue;
      spans.push_back({importedName(ev.name()), start, end,
                       kImportedThreadBase + static_cast<int>(track.tid), false, -1});
    }
  }
}

/// Parent of each span: the innermost span on the same thread that encloses
/// it, else the innermost enclosing span on any other thread (a pool worker's
/// task under the submitting thread's fan-out span).
void assignParents(std::vector<SpanRec>& spans) {
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].start != spans[b].start) return spans[a].start < spans[b].start;
    return spans[a].end > spans[b].end;
  });
  auto encloses = [&](size_t p, size_t c) {
    return spans[p].start <= spans[c].start + kSlackNs &&
           spans[p].end + kSlackNs >= spans[c].end;
  };
  // Per-thread open stacks, in start order.
  std::map<int, std::vector<size_t>> stacks;
  for (size_t c : order) {
    auto& st = stacks[spans[c].thread];
    while (!st.empty() && !encloses(st.back(), c)) st.pop_back();
    if (!st.empty()) {
      spans[c].parent = static_cast<int>(st.back());
    } else {
      int64_t best = INT64_MAX;
      for (auto& [thread, other] : stacks) {
        if (thread == spans[c].thread) continue;
        for (auto it = other.rbegin(); it != other.rend(); ++it) {
          if (!encloses(*it, c)) continue;
          int64_t len = spans[*it].end - spans[*it].start;
          if (len < best) {
            best = len;
            spans[c].parent = static_cast<int>(*it);
          }
          break;
        }
      }
    }
    st.push_back(c);
  }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
std::vector<int64_t> selfTimes(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t curS = 0, curE = -1;
    for (auto [s, e] : iv) {
      s = std::max(s, spans[i].start);
      e = std::min(e, spans[i].end);
      if (e <= s) continue;
      if (s > curE) {
        if (curE > curS) covered += curE - curS;
        curS = s;
        curE = e;
      } else {
        curE = std::max(curE, e);
      }
    }
    if (curE > curS) covered += curE - curS;
    self[i] = std::max<int64_t>(0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

std::string layerOf(const std::string& spanName) {
  return spanName.substr(0, spanName.find('.'));
}

// ---------------------------------------------------------------------------
// Pass bookkeeping.

/// What one pass produced: one report per CLI-equivalent invocation (hashed
/// for the cross-pass and traced-vs-untraced identity checks), the
/// ground-truth selection qualities, and per-invocation failures.
struct PassResult {
  std::vector<std::string> reports;
  std::vector<double> qualities;
  size_t attempted = 0;
  size_t failed = 0;
  double wallS = 0;
  double untimedS = 0;  ///< checks inside the pass, taken off wallS
  std::map<std::string, std::string> digests;  ///< explore: front end by workload
  std::map<std::string, double> counts;  ///< traced pass: layer counts
  std::vector<SpanRec> spans;            ///< traced pass: all spans
};

std::string hashOf(const std::string& s) { return artifact::sha256Hex(s); }

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

/// User plus system time of every thread of this process.
double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::string sweepReport(const sweep::SweepResult& r) {
  return sweep::toMarkdown(r, 0, {}) + "\n" + sweep::toCsv(r, {});
}

std::string searchReport(const search::SearchResult& r) {
  return search::searchToMarkdown(r, 0, {}) + "\n" + search::searchToCsv(r, {});
}

/// Counts a failed invocation, keeping the first diagnostic for stderr.
void fail(PassResult& pr, const std::string& what) {
  ++pr.failed;
  static bool reported = false;
  if (!reported) {
    reported = true;
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }
}

/// Runs one input's `invocations` CLI-equivalent operations. Each pushes one
/// report; an exception fails every operation the body did not finish, and
/// the report list stays aligned for the cross-pass identity check.
void perInput(PassResult& pr, size_t invocations, const std::function<void()>& body) {
  const size_t before = pr.reports.size();
  pr.attempted += invocations;
  try {
    body();
  } catch (const std::exception& e) {
    for (size_t i = pr.reports.size(); i < before + invocations; ++i) fail(pr, e.what());
  }
  pr.reports.resize(before + invocations);
}

// ---------------------------------------------------------------------------
// Front-end composition (traced groundtruth passes): the stages
// WorkloadFrontend's constructor runs, called one by one through their public
// functions. The program's own spans do not separate the profile run from
// the front-end blob write, nor (in runSweep) the reuse histograms from the
// exact-replay decode; composing the calls does.

struct ComposedFrontend {
  std::string key;
  std::unique_ptr<minic::Program> prog;
  vm::Module mod;
  vm::ProfileData profile;
  trace::MemoryTrace trace;
  skel::SkeletonProgram skeleton;
  bet::Bet bet;
};

std::unique_ptr<ComposedFrontend> composeFrontend(const Input& in, SpanLog* log,
                                                  const artifact::ArtifactCache* store) {
  const workloads::Workload& w = *in.workload;
  auto fe = std::make_unique<ComposedFrontend>();
  core::FrontendOptions fo;
  fe->key = timed(log, "artifact.key", [&] {
    return artifact::ArtifactCache::frontendKey(w.source, w.params, in.seed, fo.maxOps,
                                                fo.recordTrace, fo.traceMaxRefs);
  });
  fe->prog = timed(log, "frontend.parse", [&] { return minic::parseProgram(w.source, w.name); });
  {
    Scope s(log, "frontend.sema");
    DiagSink diags;
    logging::configureSink(diags);
    minic::analyze(*fe->prog, diags);
    diags.throwIfErrors();
  }
  fe->mod = timed(log, "frontend.compile", [&] { return vm::compile(*fe->prog); });
  if (store != nullptr) {
    Scope s(log, "artifact.load");
    if (store->loadFrontend(fe->key)) throw Error("perfbench: fresh store already holds the key");
  }
  {
    Scope s(log, "vm.profile_run");
    trace::TraceRecorder recorder(fo.traceMaxRefs);
    fe->profile = vm::profileRun(fe->mod, w.params, in.seed, &recorder, fo.maxOps,
                                 [&](const vm::Vm& vm) { fe->trace = recorder.finish(vm); });
  }
  if (store != nullptr) {
    Scope s(log, "artifact.write");
    store->storeFrontend(fe->key, fe->profile, fe->trace);
  }
  {
    Scope s(log, "frontend.skeleton");
    fe->skeleton = translate::translateProgram(*fe->prog);
    translate::annotate(fe->skeleton, fe->profile);
    if (!translate::unresolvedSites(fe->skeleton).empty()) {
      throw Error("perfbench: unresolved control-flow sites");
    }
  }
  fe->bet = timed(log, "frontend.bet", [&] {
    ParamEnv input(w.params);
    return bet::buildBet(fe->skeleton, input);
  });
  return fe;
}

const roofline::LibMixes* libMixes() {
  return &core::WorkloadFrontend::libProfile().mixes;
}

// ---------------------------------------------------------------------------
// validate: `skopec W --compare --hotpath` for every bundled workload on bgq
// and xeon — one cold front end per workload, then per machine the
// projection, the ground-truth simulation and the hot path.

const std::vector<MachineModel>& validateMachines() {
  static const std::vector<MachineModel> m = {machineByName("bgq"), machineByName("xeon")};
  return m;
}

/// One pass; with `log` set, each public call is a span and the program's
/// spans inside it are imported afterwards.
void validatePass(const std::vector<Input>& inputs, PassResult& pr, SpanLog* log) {
  for (const Input& in : inputs) {
    perInput(pr, validateMachines().size(), [&] {
      auto fe = [&] {
        Scope s(log, "frontend.build", /*opaque=*/true);
        return std::make_shared<const core::WorkloadFrontend>(
            in.workload->name, in.workload->source, in.workload->params, in.seed);
      }();
      // The constructor builds the framework's private BET copy.
      std::optional<core::CodesignFramework> fw;
      {
        Scope s(log, "frontend.private_bet");
        fw.emplace(fe);
      }
      for (const MachineModel& m : validateMachines()) {
        // Self time: the profile report, rankings, selections and quality.
        core::Analysis a = [&] {
          Scope s(log, "hotspot.analyze", true);
          return fw->analyze(m, kCriteria);
        }();
        std::string report = timed(log, "report.write", [&] { return a.summary(10); });
        {
          // Self time: selection, hot-path extraction and rendering.
          Scope s(log, "hotpath.report", true);
          report += fw->hotPathReport(m, kCriteria);
        }
        pr.reports.push_back(std::move(report));
        pr.qualities.push_back(a.quality.quality);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// groundtruth: `sweep W --grid G --quality --cache-model=reuse-dist
// --trace-roofline --format both --threads 4 --artifact-cache DIR` with DIR
// empty at the start of every pass.

sweep::SweepOptions groundTruthOptions(const artifact::ArtifactCache* store) {
  sweep::SweepOptions so;
  so.threads = kThreads;
  so.criteria = kCriteria;
  so.groundTruth = true;
  so.cacheModel = sweep::CacheModelMode::ReuseDist;
  so.traceInformedRoofline = true;
  so.artifacts = store;
  return so;
}

/// Fails the operation on any config row that is not `ok`; otherwise
/// records the rows' selection qualities.
void recordSweep(const sweep::SweepResult& r, PassResult& pr, const std::string& what) {
  for (const sweep::ConfigOutcome& o : r.outcomes) {
    if (o.status != sweep::ConfigStatus::Ok || !o.quality) {
      fail(pr, what + ": config " + o.config + " is " +
                   std::string(sweep::configStatusLabel(o.status)) + ": " + o.error);
      return;
    }
  }
  for (const sweep::ConfigOutcome& o : r.outcomes) pr.qualities.push_back(*o.quality);
}

void groundTruthPlain(const std::vector<Input>& inputs, const fs::path& storeDir,
                      PassResult& pr) {
  artifact::ArtifactCache store(storeDir.string());
  const MachineGrid grid = parseGridSpec(kGroundTruthGrid);
  for (const Input& in : inputs) {
    perInput(pr, 1, [&] {
      core::FrontendOptions fo;
      fo.artifacts = &store;
      core::WorkloadFrontend fe(in.workload->name, in.workload->source, in.workload->params,
                                in.seed, fo);
      auto r = sweep::runSweep(fe, grid, groundTruthOptions(&store));
      pr.reports.push_back(sweepReport(r));
      recordSweep(r, pr, in.name);
    });
  }
  pr.counts["artifact.bytes_written"] += static_cast<double>(store.store().storeBytes());
}

/// runSweep for the groundtruth options, composed from the public calls it
/// makes: the reuse-distance cache model (histograms, then one exact-replay
/// decode pass), the base projection, the batched back-end's geometry-
/// memoized predictions, factorization and combine, then a pool fan-out of
/// the per-config finish (hot spots + replayed ground truth). The geometry
/// memo below is this benchmark's, not GridBackend's, and there is no
/// machineKey dedup: every config of the groundtruth grid has its own
/// geometry, so neither ever hits. The pool is the program's.
sweep::SweepResult composeSweep(const Input& in, const ComposedFrontend& fe,
                                const MachineGrid& grid, const artifact::ArtifactCache& store,
                                PassResult& pr, SpanLog* log) {
  const std::vector<MachineConfig> configs = grid.expand();
  sweep::SweepResult result;
  result.workload = in.workload->name;
  result.groundTruth = true;
  result.missModel = "reuse-dist";
  result.baseMachine = grid.base.name;

  auto hook = store.makeReuseHook(fe.key);
  trace::CacheModel cm(fe.trace, kThreads, {}, hook.get());
  {
    Scope s(log, "trace.reuse");
    // Histograms serve the levels the exact-replay tier does not take.
    std::set<uint32_t> lineSizes;
    for (const MachineConfig& c : configs) {
      for (const CacheLevelDesc* l : {&c.machine.l1, &c.machine.llc}) {
        if (!trace::CacheModel::usesExactReplay(*l)) lineSizes.insert(l->lineBytes);
      }
    }
    for (uint32_t line : lineSizes) (void)cm.analyzer().histograms(line);
    pr.counts["reuse.line_sizes"] += static_cast<double>(lineSizes.size());
  }
  {
    Scope s(log, "trace.replay_decode");
    cm.prepare(configs);
  }
  std::set<std::tuple<uint64_t, uint32_t, uint32_t>> exactLevels;
  for (const MachineConfig& c : configs) {
    for (const CacheLevelDesc* l : {&c.machine.l1, &c.machine.llc}) {
      if (trace::CacheModel::usesExactReplay(*l)) {
        exactLevels.emplace(l->sizeBytes, l->lineBytes, l->assoc);
      }
    }
  }
  pr.counts["replay.geometries"] += static_cast<double>(exactLevels.size());

  result.baseProjectedSeconds = timed(log, "roofline.base_eval", [&] {
    roofline::BetAnnotations ann;
    return roofline::estimate(fe.bet, roofline::Roofline(grid.base, {}), &fe.mod, libMixes(),
                              &ann)
        .totalSeconds;
  });

  std::vector<roofline::Roofline> models;
  {
    Scope s(log, "trace.replay_predict");
    using Key = std::tuple<uint64_t, uint32_t, uint32_t, uint64_t, uint32_t, uint32_t>;
    std::map<Key, trace::CachePrediction> memo;
    for (const MachineConfig& c : configs) {
      const MachineModel& m = c.machine;
      Key key{m.l1.sizeBytes,  m.l1.lineBytes,  m.l1.assoc,
              m.llc.sizeBytes, m.llc.lineBytes, m.llc.assoc};
      auto it = memo.find(key);
      if (it == memo.end()) {
        it = memo.emplace(key, cm.evaluate(m)).first;
        pr.counts["sweep.memo_miss"] += 1;
      } else {
        pr.counts["sweep.memo_hit"] += 1;
      }
      roofline::RooflineParams rp;
      rp.l1MissRatio = it->second.l1MissRate;
      rp.dramMissRatio = it->second.l1MissRate * it->second.llcMissRate;
      models.emplace_back(m, rp);
    }
  }
  std::optional<roofline::BatchedEstimator> estimator;
  {
    Scope s(log, "roofline.factorize");
    estimator.emplace(fe.bet, &fe.mod, libMixes());
  }
  std::vector<roofline::ModelResult> projected =
      timed(log, "roofline.combine", [&] { return estimator->estimateGrid(models); });

  result.outcomes.resize(configs.size());
  const size_t totalInstrs = fe.mod.totalStaticInstrs();
  trace::ReplayInputs replayIn{fe.trace, cm, fe.profile, libMixes()};
  {
    Scope s(log, "sweep.fanout");
    parallel::WorkStealingPool pool(kThreads);
    pool.run(
        configs.size(),
        [&](size_t i) {
          Scope cs(log, "sweep.config");
          const MachineModel& m = configs[i].machine;
          core::MachineEvaluation ev;
          ev.model = projected[i];
          {
            Scope hs(log, "hotspot.select");
            ev.ranking = hotspot::rankingFromModel(ev.model);
            ev.selection = hotspot::selectHotSpots(ev.ranking, totalInstrs, kCriteria);
          }
          sim::SimResult simResult = timed(log, "trace.replay_sim", [&] {
            return trace::replaySimulate(*fe.prog, m, replayIn);
          });
          {
            Scope hs(log, "hotspot.quality");
            ev.prof = sim::makeReport(simResult, fe.mod);
            ev.profRanking = hotspot::rankingFromProfile(*ev.prof);
            ev.profSelection = hotspot::selectHotSpots(*ev.profRanking, totalInstrs, kCriteria);
            auto measured = hotspot::fractionsByOrigin(*ev.profRanking);
            ev.quality = hotspot::selectionQuality(ev.selection, *ev.profSelection, measured);
          }
          // sweep's per-config digest (src/sweep/sweep.cpp).
          sweep::ConfigOutcome& out = result.outcomes[i];
          out.index = i;
          out.config = configs[i].name;
          out.projectedSeconds = ev.model.totalSeconds;
          out.speedupVsBase = ev.model.totalSeconds > 0
                                  ? result.baseProjectedSeconds / ev.model.totalSeconds
                                  : 0;
          out.coverage = ev.selection.coverage;
          out.leanness = ev.selection.leanness;
          out.spotCount = ev.selection.spots.size();
          for (size_t k = 0; k < 3 && k < ev.ranking.size(); ++k) {
            out.topSpots.push_back(format("%s (%.1f%%)", ev.ranking[k].label.c_str(),
                                          ev.ranking[k].fraction * 100));
          }
          if (!ev.ranking.empty()) {
            const auto& top = ev.model.blocks.at(ev.ranking.front().origin);
            out.topBound = std::string(sweep::boundLabel(top.tmSeconds, top.tcSeconds));
          }
          out.measuredSeconds = ev.prof->totalSeconds;
          out.quality = ev.quality->quality;
        },
        {},
        [&](size_t i, std::exception_ptr ep) {
          // Slot i belongs to task i alone, as in runSweep.
          result.outcomes[i].status = sweep::ConfigStatus::Error;
          try {
            std::rethrow_exception(ep);
          } catch (const std::exception& e) {
            result.outcomes[i].error = e.what();
          }
        });
  }
  pr.counts["sweep.configs"] += static_cast<double>(configs.size());
  return result;
}

void groundTruthTraced(const std::vector<Input>& inputs, const fs::path& storeDir,
                       PassResult& pr, SpanLog* log) {
  artifact::ArtifactCache store(storeDir.string());
  const MachineGrid grid = parseGridSpec(kGroundTruthGrid);
  for (const Input& in : inputs) {
    perInput(pr, 1, [&] {
      auto fe = composeFrontend(in, log, &store);
      auto r = composeSweep(in, *fe, grid, store, pr, log);
      pr.reports.push_back(timed(log, "report.write", [&] { return sweepReport(r); }));
      recordSweep(r, pr, in.name);
    });
  }
  pr.counts["artifact.bytes_written"] += static_cast<double>(store.store().storeBytes());
}

// ---------------------------------------------------------------------------
// explore: `sweep W --grid SPACE --search=exhaustive` and `--search=shalving
// --seed S` with --cache-model=layer-cond against a warm artifact store, then
// `sweep W --grid BEST --quality --cache-model=reuse-dist` to check the hot
// spots of the chosen design against replayed ground truth (also warm).

sweep::SweepOptions exploreSweepOptions() {
  sweep::SweepOptions so;
  so.threads = kThreads;
  so.criteria = kCriteria;
  so.cacheModel = sweep::CacheModelMode::LayerCond;
  return so;
}

/// Digest of a front end's machine-independent outputs: the warm build must
/// equal the cold one.
std::string frontendDigest(const core::WorkloadFrontend& fe) {
  const trace::MemoryTrace& t = fe.memoryTrace();
  std::string s = bet::printBet(fe.bet());
  s += format("|refs=%llu|bytes=%zu|", static_cast<unsigned long long>(t.recordedRefs),
              t.sizeBytes());
  const auto& ops = fe.profile().opCounters.flat;
  s.append(reinterpret_cast<const char*>(ops.data()), ops.size() * sizeof(ops[0]));
  // The trace is tens of MB: FNV-1a keeps the untimed check short.
  s += format("|trace=%016llx", static_cast<unsigned long long>(
                                    artifact::fnv1a64(t.data(), t.sizeBytes())));
  return hashOf(s);
}

struct ExploreState {
  fs::path storeDir;
  std::map<std::string, std::string> coldDigest;  ///< by workload name
  uint64_t shalvingSeed = 1;
};

/// One explore pass. Each front end's digest is taken right after its
/// invocations, off the pass clock, and the front end is then released, so
/// only one is alive at a time, as in one `sweep` process per workload.
void explorePass(const std::vector<Input>& inputs, const ExploreState& st, bool cold,
                 PassResult& pr, SpanLog* log) {
  artifact::ArtifactCache store(st.storeDir.string());
  const search::DesignSpace space = search::parseDesignSpace(kExploreSpace);
  for (const Input& in : inputs) {
    perInput(pr, 3, [&] {
      core::FrontendOptions fo;
      fo.artifacts = &store;
      auto fe = [&] {
        Scope s(log, "artifact.frontend_load", /*opaque=*/true);
        return std::make_shared<const core::WorkloadFrontend>(
            in.workload->name, in.workload->source, in.workload->params, in.seed, fo);
      }();
      if (!cold && fe->artifactProvenance() != "hit") {
        throw Error(in.name + ": warm store missed (" + fe->artifactProvenance() + ")");
      }

      search::SearchOptions ex;
      ex.algorithm = search::SearchAlgorithm::Exhaustive;
      ex.sweep = exploreSweepOptions();
      search::SearchOptions sh = ex;
      sh.algorithm = search::SearchAlgorithm::SuccessiveHalving;
      sh.seed = st.shalvingSeed;
      auto checkPoints = [&](const search::SearchResult& r) {
        for (const auto& p : r.evaluated) {
          if (p.status != sweep::ConfigStatus::Ok) {
            throw Error(in.name + ": " + r.algorithm + " point " + p.config + ": " + p.error);
          }
        }
        if (!r.bestIndex) throw Error(in.name + ": " + r.algorithm + " found no best");
        return r.evaluated[*r.bestIndex];
      };
      search::SearchResult rex = [&] {
        Scope s(log, "search.exhaustive", true);
        return search::runSearch(*fe, space, ex);
      }();
      const search::EvaluatedPoint exBest = checkPoints(rex);
      pr.reports.push_back(timed(log, "report.write", [&] { return searchReport(rex); }));
      search::SearchResult rsh = [&] {
        Scope s(log, "search.shalving", true);
        return search::runSearch(*fe, space, sh);
      }();
      const double shBest = checkPoints(rsh).projectedSeconds;
      pr.counts["search.evals_exhaustive"] += static_cast<double>(rex.evals());
      pr.counts["search.evals_shalving"] += static_cast<double>(rsh.evals());
      // The guided search must find the exhaustive optimum.
      if (shBest != exBest.projectedSeconds) {
        throw Error(format("%s: shalving best %.9g s != exhaustive best %.9g s",
                           in.name.c_str(), shBest, exBest.projectedSeconds));
      }
      pr.reports.push_back(timed(log, "report.write", [&] { return searchReport(rsh); }));

      // Ground truth for the chosen design, given to the sweep as the
      // one-point grid its config name spells ("BG/Q{freq=2,cores=64,...}").
      const std::string& bestName = exBest.config;
      const size_t open = bestName.find('{');
      if (open == std::string::npos || bestName.back() != '}') {
        throw Error(in.name + ": unexpected config name " + bestName);
      }
      std::string spec = bestName.substr(open + 1, bestName.size() - open - 2);
      std::replace(spec.begin(), spec.end(), ',', ';');
      std::vector<MachineConfig> best = parseGridSpec(spec).expand();
      if (best.size() != 1 || best[0].name != bestName) {
        throw Error(in.name + ": grid spec '" + spec + "' does not rebuild " + bestName);
      }
      sweep::SweepOptions gt = exploreSweepOptions();
      gt.groundTruth = true;
      gt.cacheModel = sweep::CacheModelMode::ReuseDist;
      gt.artifacts = &store;
      sweep::SweepResult rgt = [&] {
        Scope s(log, "sweep.ground_truth", true);
        return sweep::runSweep(*fe, best, gt);
      }();
      pr.reports.push_back(timed(log, "report.write", [&] { return sweepReport(rgt); }));
      recordSweep(rgt, pr, in.name);

      Scope s(log, "bench.check");
      const auto t0 = Clock::now();
      pr.digests[fe->name()] = frontendDigest(*fe);
      pr.untimedS += std::chrono::duration<double>(Clock::now() - t0).count();
    });
  }
}

// ---------------------------------------------------------------------------
// Run driver.

struct Args {
  std::string workload;
  std::string phase = "measure";
  std::string work;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw Error("perfbench: flag " + flag + " needs a value");
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--phase") {
      a.phase = v;
    } else if (flag == "--work") {
      a.work = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else {
      throw Error("perfbench: unknown flag " + flag);
    }
  }
  if (a.workload != "validate" && a.workload != "groundtruth" && a.workload != "explore") {
    throw Error("perfbench: --workload must be validate, groundtruth or explore");
  }
  if (a.phase != "setup" && a.phase != "measure") {
    throw Error("perfbench: --phase must be setup or measure");
  }
  if (a.work.empty()) throw Error("perfbench: --work DIR is required");
  return a;
}

const std::vector<std::string>& workloadNames(const std::string& workload) {
  if (workload == "validate") return kValidateWorkloads;
  if (workload == "groundtruth") return kGroundTruthWorkloads;
  return kExploreWorkloads;
}

fs::path digestFile(const fs::path& work) { return work / "explore_cold_digests.txt"; }

/// One pass of the workload; `log` set = traced pass.
PassResult runPass(const Args& args, const std::vector<Input>& inputs, ExploreState& ex,
                   SpanLog* log, int passNo) {
  PassResult pr;
  std::optional<telemetry::Context> ctx;
  if (log != nullptr) ctx.emplace("perfbench");
  fs::path passStore = fs::path(args.work) / ("gt_store_" + std::to_string(passNo));
  if (args.workload == "groundtruth") {
    fs::remove_all(passStore);
    fs::create_directories(passStore);
  }
  const int64_t t0 = log != nullptr ? log->now() : 0;
  const auto start = Clock::now();
  if (args.workload == "validate") {
    validatePass(inputs, pr, log);
  } else if (args.workload == "groundtruth") {
    if (log != nullptr) {
      groundTruthTraced(inputs, passStore, pr, log);
    } else {
      groundTruthPlain(inputs, passStore, pr);
    }
  } else {
    explorePass(inputs, ex, /*cold=*/false, pr, log);
  }
  pr.wallS = std::chrono::duration<double>(Clock::now() - start).count() - pr.untimedS;
  const int64_t t1 = log != nullptr ? log->now() : 0;
  // Everything below is untimed.
  if (args.workload == "groundtruth") fs::remove_all(passStore);
  // The warm front ends must equal the cold builds recorded at set-up.
  for (const auto& [name, d] : pr.digests) {
    auto it = ex.coldDigest.find(name);
    if (it == ex.coldDigest.end() || it->second != d) {
      fail(pr, name + ": warm front end differs from the cold build");
    }
  }
  if (log != nullptr) {
    pr.spans = log->take();
    pr.spans.push_back({"bench.pass", t0, t1, threadIndex(), false, -1});
    importOpaqueInternals(ctx->registry(), *log, pr.spans);
    auto& reg = ctx->registry();
    for (const char* c :
         {"vm/ops", "sim/ops", "trace/refs", "trace/bytes", "roofline/batched-nodes",
          "cachemodel/evaluations", "cachemodel/dispatch", "cachemodel/fallback-replay",
          "sweep/memo-hit", "sweep/memo-miss", "sweep/pool/idle_ns", "search/evals",
          "artifact/hit", "artifact/miss"}) {
      pr.counts[c] += static_cast<double>(reg.counter(c).value());
    }
  }
  return pr;
}

/// Every per-layer metric with its unit (the traced run reports all of
/// them on every workload; a layer the workload does not reach reads 0).
const std::map<std::string, const char*> kLayerUnits = {
    {"vm.ops", "count"},
    {"vm.profile_ms", "ms"},
    {"vm.ns_per_op", "ns"},
    {"sim.runs", "count"},
    {"sim.ns_per_op", "ns"},
    {"trace.refs", "count"},
    {"trace.bytes", "bytes"},
    {"reuse.ns_per_ref", "ns"},
    {"replay.geometries", "count"},
    {"replay.decode_ns_per_ref", "ns"},
    {"replay.sim_ms_per_config", "ms"},
    {"artifact.write_ms", "ms"},
    {"artifact.bytes_written", "bytes"},
    {"artifact.load_ms", "ms"},
    {"artifact.hit_frac", "fraction"},
    {"frontend.static_ms", "ms"},
    {"roofline.nodes", "count"},
    {"roofline.factorize_ms", "ms"},
    {"roofline.combine_us_per_config", "us"},
    {"layercond.evals", "count"},
    {"layercond.us_per_eval", "us"},
    {"layercond.fallback_frac", "fraction"},
    {"hotspot.us_per_config", "us"},
    {"hotpath.ms", "ms"},
    {"sweep.fanout_us_per_config", "us"},
    {"sweep.memo_hit_frac", "fraction"},
    {"pool.idle_frac", "fraction"},
    {"search.evals", "count"},
    {"search.eval_frac", "fraction"},
    {"search.self_us_per_eval", "us"},
    {"report.ms", "ms"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Per-layer metrics of one traced pass, plus each layer's self time.
std::map<std::string, double> layerMetrics(PassResult& pr,
                                           std::map<std::string, double>& layerSelfMs,
                                           double& coveragePct) {
  std::vector<SpanRec>& spans = pr.spans;
  assignParents(spans);
  std::vector<int64_t> self = selfTimes(spans);
  std::map<std::string, double> selfMs;   // by span name
  std::map<std::string, double> totalMs;  // by span name
  std::map<std::string, double> n;        // span count by name
  int passIdx = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    if (s.name == "bench.pass") {
      passIdx = static_cast<int>(i);
      continue;
    }
    if (s.name == "bench.check") continue;  // off the pass clock
    selfMs[s.name] += static_cast<double>(self[i]) / 1e6;
    totalMs[s.name] += static_cast<double>(s.end - s.start) / 1e6;
    n[s.name] += 1;
    layerSelfMs[layerOf(s.name)] += static_cast<double>(self[i]) / 1e6;
  }
  const double passMs = pr.wallS * 1e3;
  coveragePct = 0;
  if (passIdx >= 0) {
    const double uncovered = static_cast<double>(self[static_cast<size_t>(passIdx)]) / 1e6;
    layerSelfMs["(uncovered)"] += uncovered;
    coveragePct = passMs > 0 ? 100.0 * (1 - uncovered / passMs) : 0;
  }
  auto sumSelf = [&](const std::string& layer) {
    double t = 0;
    for (const auto& [name, ms] : selfMs) {
      if (layerOf(name) == layer) t += ms;
    }
    return t;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, double>& c = pr.counts;

  std::map<std::string, double> m;
  const double vmOps = c["vm/ops"];
  m["vm.ops"] = vmOps;
  m["vm.profile_ms"] = totalMs["vm.profile_run"];
  m["vm.ns_per_op"] = per(totalMs["vm.profile_run"] * 1e6, vmOps);
  m["sim.runs"] = n["sim.run"];
  m["sim.ns_per_op"] = per(totalMs["sim.run"] * 1e6, c["sim/ops"]);
  const double refs = c["trace/refs"];
  m["trace.refs"] = refs;
  m["trace.bytes"] = c["trace/bytes"];
  m["reuse.ns_per_ref"] = per(totalMs["trace.reuse"] * 1e6, refs * c["reuse.line_sizes"] /
                                                              std::max(1.0, n["trace.reuse"]));
  m["replay.geometries"] = c["replay.geometries"];
  m["replay.decode_ns_per_ref"] = per(totalMs["trace.replay_decode"] * 1e6, refs);
  m["replay.sim_ms_per_config"] = per(totalMs["trace.replay_sim"], n["trace.replay_sim"]);
  m["artifact.write_ms"] = totalMs["artifact.write"];
  m["artifact.bytes_written"] = c["artifact.bytes_written"];
  m["artifact.load_ms"] = selfMs["artifact.load"];
  m["artifact.hit_frac"] = per(c["artifact/hit"], c["artifact/hit"] + c["artifact/miss"]);
  m["frontend.static_ms"] = sumSelf("frontend");
  m["roofline.nodes"] = c["roofline/batched-nodes"];
  m["roofline.factorize_ms"] = totalMs["roofline.factorize"];
  const double configs = n["sweep.config"];
  m["roofline.combine_us_per_config"] = per(totalMs["roofline.combine"] * 1e3, configs);
  // Composed groundtruth memoizes trace predictions itself; explore's
  // layer-cond evaluations are counted by the program.
  const double evals = c["cachemodel/evaluations"];
  m["layercond.evals"] = evals;
  m["layercond.us_per_eval"] = per(sumSelf("cachemodel") * 1e3, evals);
  m["layercond.fallback_frac"] = per(c["cachemodel/fallback-replay"], c["cachemodel/dispatch"]);
  m["hotspot.us_per_config"] = per(sumSelf("hotspot") * 1e3, configs);
  m["hotpath.ms"] = sumSelf("hotpath");
  m["sweep.fanout_us_per_config"] = per(selfMs["sweep.fanout"] * 1e3, configs);
  const double hits = c["sweep/memo-hit"] + c["sweep.memo_hit"];
  const double misses = c["sweep/memo-miss"] + c["sweep.memo_miss"];
  m["sweep.memo_hit_frac"] = per(hits, hits + misses);
  // Worker time not spent in a task, over the pool's capacity while fanned
  // out; composed passes measure it from the spans, explore from the pool's
  // own idle counter.
  const double fanoutNs = totalMs["sweep.fanout"] * 1e6;
  double idleNs = c["sweep/pool/idle_ns"];
  if (idleNs == 0 && fanoutNs > 0) {
    idleNs = std::max(0.0, kThreads * fanoutNs - totalMs["sweep.config"] * 1e6);
  }
  m["pool.idle_frac"] = per(idleNs, kThreads * fanoutNs);
  const double searchEvals = c["search/evals"];
  m["search.evals"] = searchEvals;
  m["search.eval_frac"] = per(c["search.evals_shalving"], c["search.evals_exhaustive"]);
  m["search.self_us_per_eval"] = per(sumSelf("search") * 1e3, searchEvals);
  m["report.ms"] = sumSelf("report");
  return m;
}

void writeSpans(const fs::path& path, const std::string& workload,
                const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  out << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    out << (i ? ",\n" : "\n")
        << format("{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld,\"parent\":%d,\"thread\":%d,\"workload\":\"%s\"}",
                  i, s.name.c_str(), layerOf(s.name).c_str(),
                  static_cast<long long>(s.start), static_cast<long long>(s.end), s.parent,
                  s.thread, workload.c_str());
  }
  out << "\n]\n";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return format("%.12g", v);
}

/// Set-up: what the measured passes rely on (the library profile; for
/// explore, the artifact store built cold and the cold front ends' digests).
int runSetup(const Args& args, const std::vector<Input>& inputs) {
  (void)core::WorkloadFrontend::libProfile();
  if (args.workload != "explore") return 0;
  ExploreState ex;
  ex.storeDir = fs::path(args.work) / "explore_store";
  ex.shalvingSeed = args.seed;
  fs::remove_all(ex.storeDir);
  fs::create_directories(ex.storeDir);
  PassResult pr;
  explorePass(inputs, ex, /*cold=*/true, pr, nullptr);
  if (pr.failed != 0) return 1;
  std::ofstream out(digestFile(args.work));
  for (const auto& [name, d] : pr.digests) out << name << " " << d << "\n";
  out.close();
  return out ? 0 : 1;
}

int runMeasure(const Args& args, const std::vector<Input>& inputs) {
  (void)core::WorkloadFrontend::libProfile();
  ExploreState ex;
  ex.storeDir = fs::path(args.work) / "explore_store";
  ex.shalvingSeed = args.seed;
  if (args.workload == "explore") {
    std::ifstream in(digestFile(args.work));
    std::string name, d;
    while (in >> name >> d) ex.coldDigest[name] = d;
    if (ex.coldDigest.size() != inputs.size()) {
      throw Error("perfbench: explore store not set up (run --phase setup first)");
    }
  }

  size_t attempted = 0, failed = 0;
  std::vector<double> plainWall, tracedWall;
  std::vector<std::string> reference;  // first pass's report hashes
  std::vector<double> qualities;
  std::vector<std::map<std::string, double>> traced;
  std::map<std::string, double> layerSelfMs;
  std::vector<double> coverage;
  std::vector<SpanRec> lastSpans;
  SpanLog log;

  const auto start = Clock::now();
  double last = 0;
  for (int pass = 0;; ++pass) {
    double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    const bool enough = args.trace ? (plainWall.size() >= 1 && tracedWall.size() >= 1)
                                   : plainWall.size() >= 3;
    if (enough && elapsed + last / 2 > args.seconds) break;
    const bool tracedPass = args.trace != 0 && pass % 2 == 1;
    const double cpu0 = processCpuSeconds();
    PassResult pr = runPass(args, inputs, ex, tracedPass ? &log : nullptr, pass);
    last = pr.wallS;
    // CPU time next to wall time tells a contended box from a slower program.
    std::fprintf(stderr, "perfbench: %s pass %d: %.4f s wall, %.4f s cpu\n",
                 tracedPass ? "traced" : "untraced", pass, pr.wallS,
                 processCpuSeconds() - cpu0);
    std::vector<std::string> hashes;
    for (const std::string& r : pr.reports) hashes.push_back(hashOf(r));
    if (reference.empty()) {
      reference = hashes;
      qualities = pr.qualities;
    } else if (hashes != reference) {
      for (size_t i = 0; i < std::max(hashes.size(), reference.size()); ++i) {
        if (i >= hashes.size() || i >= reference.size() || hashes[i] != reference[i]) {
          fail(pr, format("%s report %zu differs from the first pass's",
                          tracedPass ? "traced" : "untraced", i));
        }
      }
    }
    attempted += pr.attempted;
    failed += pr.failed;
    if (tracedPass) {
      tracedWall.push_back(pr.wallS);
      double cov = 0;
      traced.push_back(layerMetrics(pr, layerSelfMs, cov));
      coverage.push_back(cov);
      lastSpans = std::move(pr.spans);
    } else {
      plainWall.push_back(pr.wallS);
    }
  }

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (args.trace == 0) {
    double qMean = 0, qMin = qualities.empty() ? 0 : 1;
    for (double q : qualities) {
      qMean += q / static_cast<double>(qualities.size());
      qMin = std::min(qMin, q);
    }
    metrics["wall_s"] = {median(plainWall), "s"};
    metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
    metrics["quality_mean_pct"] = {qMean * 100, "%"};
    metrics["quality_min_pct"] = {qMin * 100, "%"};
  } else {
    for (const auto& [name, unit] : kLayerUnits) {
      std::vector<double> vals;
      for (const auto& t : traced) vals.push_back(t.at(name));
      metrics[name] = {median(vals), unit};
    }
    metrics["bench.tracing_overhead_pct"] = {
        (median(tracedWall) / median(plainWall) - 1) * 100, "%"};
    metrics["bench.span_coverage_pct"] = {median(coverage), "%"};

    // Per-layer share of self time, summed over the traced passes.
    double total = 0;
    for (const auto& [layer, ms] : layerSelfMs) total += ms;
    std::printf("layer self-time share, %s, %zu traced passes (%.3f s median traced "
                "wall, %.3f s untraced):\n",
                args.workload.c_str(), tracedWall.size(), median(tracedWall),
                median(plainWall));
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [layer, ms] : layerSelfMs) rows.emplace_back(ms, layer);
    std::sort(rows.rbegin(), rows.rend());
    for (const auto& [ms, layer] : rows) {
      std::printf("  %-12s %10.1f ms  %6.2f%%\n", layer.c_str(),
                  ms / static_cast<double>(tracedWall.size()), total > 0 ? 100 * ms / total : 0);
    }
    fs::path spansPath = fs::path(args.work) / ("spans_" + args.workload + ".json");
    writeSpans(spansPath, args.workload, lastSpans);
    std::printf("spans of the last traced pass: %s\n", spansPath.string().c_str());
  }

  std::string json = format("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                            "\"passes\": %zu, \"metrics\": {",
                            failed == 0 ? "true" : "false", attempted, failed,
                            plainWall.size() + tracedWall.size());
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    json += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                   name.c_str(), jsonNumber(vu.first).c_str(), vu.second);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parseArgs(argc, argv);
    logging::setLevel(logging::parseLevel("quiet"));
    fs::create_directories(args.work);
    std::vector<Input> inputs = makeInputs(workloadNames(args.workload), args.seed);
    if (args.phase == "setup") return runSetup(args, inputs);
    return runMeasure(args, inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
