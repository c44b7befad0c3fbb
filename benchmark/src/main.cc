// The repository benchmark: runs one named workload for a fixed time from a
// seed, checks the engine's outputs, and prints one JSON result line.
//
//   rocc_bench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   rocc_bench --workload NAME --seed N --setup-only 1 [--out-dir DIR]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// per-layer ones, and the spans go to DIR/spans-NAME-seedN.csv. With
// --setup-only the process only sets the workload up and prints
// {"setup_s": ...}: benchmark/run.py times further cold set-ups that way.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "rocc_bench: %s\nworkloads:", why);
  for (const std::string& n : bench::WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr,
               "\nusage: rocc_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n"
               "       rocc_bench --workload NAME --seed N --setup-only 1 [--out-dir DIR]\n");
  std::exit(2);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintMetrics(const std::vector<bench::Metric>& metrics) {
  for (const bench::Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bench::RunConfig cfg;
  bool setup_only = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 3600;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      cfg.trace = std::strcmp(val, "1") == 0;
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else if (arg == "--setup-only") {
      if (std::strcmp(val, "1") != 0) Usage("--setup-only takes 1");
      setup_only = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const bench::WorkloadSpec* spec = bench::FindWorkload(workload);
  if (spec == nullptr) Usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || (!setup_only && (!have_seconds || !have_trace))) {
    Usage("--seed, --seconds and --trace are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) Usage(("cannot create " + cfg.out_dir).c_str());

  // Set-up: everything up to the first measured transaction.
  const uint64_t t0 = bench::NowNs();
  auto inst = std::make_unique<bench::Instance>(*spec, cfg);
  inst->Warmup();
  bench::RunContext ctx;
  ctx.setup_s = static_cast<double>(bench::NowNs() - t0) * 1e-9;
  std::fprintf(stderr, "[%s] set-up: %.3f s\n", spec->name.c_str(), ctx.setup_s);
  if (setup_only) {
    std::printf("{\"setup_s\": %.9g}\n", ctx.setup_s);
    std::fflush(stdout);
    return 0;
  }

  const bench::Measurement m = inst->Measure();
  ctx.peak_rss_mb = PeakRssMb();  // before the checks allocate
  ctx.load_s = inst->load_s();
  ctx.rss_bytes_per_row = inst->rss_bytes_per_row();
  if (cfg.trace) ctx.index = inst->ProbeIndex();

  std::fprintf(stderr,
               "[%s] seed %llu: %.3f s measured, %llu committed (%llu bulk), "
               "%llu attempted, %llu failed, %llu aborted attempts\n",
               spec->name.c_str(), static_cast<unsigned long long>(cfg.seed), m.wall_s,
               static_cast<unsigned long long>(m.committed.txns),
               static_cast<unsigned long long>(m.committed.bulk),
               static_cast<unsigned long long>(m.attempted),
               static_cast<unsigned long long>(m.failed),
               static_cast<unsigned long long>(m.stats.aborts));
  std::fprintf(stderr, "[%s] tps per window:", spec->name.c_str());
  for (size_t i = 0; i < m.window_wall_s.size(); i++) {
    std::fprintf(stderr, " %.0f",
                 static_cast<double>(m.committed.per_window[i]) / m.window_wall_s[i]);
  }
  std::fprintf(stderr, "\n");
  if (spec->fibers) {
    std::fprintf(stderr,
                 "[%s] first round (%llu txns): %llu aborts, %llu validated txns, "
                 "%llu validated records\n",
                 spec->name.c_str(),
                 static_cast<unsigned long long>(spec->round_txns_per_worker * spec->workers),
                 static_cast<unsigned long long>(m.first_round_aborts),
                 static_cast<unsigned long long>(m.first_round_validated_txns),
                 static_cast<unsigned long long>(m.first_round_validated_records));
  }

  bool correct = true;
  std::vector<bench::CheckResult> checks = inst->Check();
  // The engine's commit count must agree with the logical transactions the
  // benchmark saw commit.
  checks.push_back({"engine commits equal committed logical transactions",
                    m.stats.commits == m.committed.txns,
                    std::to_string(m.stats.commits) + " vs " + std::to_string(m.committed.txns)});
  for (const bench::CheckResult& c : checks) {
    std::fprintf(stderr, "[check] %-52s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                 c.detail.c_str());
    correct = correct && c.ok;
  }
  if (cfg.trace) {
    const std::string path = cfg.out_dir + "/spans-" + spec->name + "-seed" +
                             std::to_string(cfg.seed) + ".csv";
    inst->WriteSpans(path);
    std::fprintf(stderr, "[%s] spans written to %s\n", spec->name.c_str(), path.c_str());
  }
  const std::vector<bench::Metric> metrics =
      cfg.trace ? bench::PerLayerMetrics(m, ctx) : bench::EndToEndMetrics(m, ctx);
  PrintMetrics(cfg.trace ? bench::EndToEndMetrics(m, ctx) : metrics);
  if (cfg.trace) PrintMetrics(metrics);
  std::printf("%s\n", bench::ResultJson(correct, m.attempted, m.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
