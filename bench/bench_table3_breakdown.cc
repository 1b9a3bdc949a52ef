// Reproduces paper Table 3: the per-component CPU breakdown (cycles/op) of
// Load A with the SD distribution, comparing Build-Index and Send-Index.
// Inclusive timings from the cluster are peeled into exclusive buckets:
//   put path        = insert_l0_raw (contains log replication)
//   log replication = log_repl_raw (contains Build-Index backup replay)
//   compaction      = primary compaction_raw (contains the shipping) plus the
//                     Build-Index backup compactions
//   send / rewrite  = Send-Index only.
// Expected shape (paper): Send-Index cuts "Insert in L0" roughly in half
// (one L0 instead of two), and its compaction+send+rewrite total is well
// below Build-Index's compaction bucket.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace tebis {
namespace bench {
namespace {

struct Table3Row {
  const char* component;
  double build_kcycles;
  double send_kcycles;
};

double KcyclesPerOp(uint64_t ns, uint64_t ops) {
  return static_cast<double>(ns) * kCyclesPerNs / static_cast<double>(ops) / 1000.0;
}

int Main() {
  const BenchScale scale = BenchScale::FromEnv();
  PrintHeader("Table 3: cycles/op breakdown, Load A, SD distribution (2-way)");

  PhaseMetrics build, send;
  {
    Experiment experiment(BuildIndexConfig(), kMixSD, scale);
    auto result = experiment.RunLoad();
    if (!result.ok()) {
      fprintf(stderr, "build-index load failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    build = *result;
  }
  {
    Experiment experiment(SendIndexConfig(), kMixSD, scale);
    auto result = experiment.RunLoad();
    if (!result.ok()) {
      fprintf(stderr, "send-index load failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    send = *result;
  }

  // Peel inclusive timings into exclusive buckets (see SimCluster docs).
  auto peel = [](const PhaseMetrics& m) {
    struct Buckets {
      uint64_t insert_l0, log_repl, compaction, send_index, rewrite, other;
    } b{};
    const ClusterCpuBreakdown& cpu = m.cpu;
    // Backup L0 replay counts as "Insert in L0" (Build-Index keeps one L0 per
    // replica, which is exactly the paper's 2x claim); its nested compactions
    // move to the compaction bucket.
    const uint64_t backup_insert_pure =
        cpu.backup_insert_ns -
        std::min(cpu.backup_insert_ns, cpu.backup_compaction_ns);
    const uint64_t log_repl_pure =
        cpu.log_replication_ns - std::min(cpu.log_replication_ns, cpu.backup_insert_ns);
    const uint64_t send_pure =
        cpu.send_index_ns - std::min(cpu.send_index_ns, cpu.rewrite_index_ns);
    // The compaction timer nests the index shipping (begin, segments, end).
    const uint64_t primary_compaction_pure =
        cpu.compaction_ns - std::min(cpu.compaction_ns, cpu.send_index_ns);
    // Every tail flush, the seal's included, runs inside the insert timer.
    const uint64_t insert_pure =
        cpu.insert_l0_ns - std::min(cpu.insert_l0_ns, cpu.log_replication_ns);
    b.insert_l0 = insert_pure + backup_insert_pure;
    b.log_repl = log_repl_pure;
    b.compaction = primary_compaction_pure + cpu.backup_compaction_ns;
    b.send_index = send_pure;
    b.rewrite = cpu.rewrite_index_ns;
    const uint64_t accounted =
        b.insert_l0 + b.log_repl + b.compaction + b.send_index + b.rewrite;
    b.other = m.cpu_ns > accounted ? m.cpu_ns - accounted : 0;
    return b;
  };
  auto build_buckets = peel(build);
  auto send_buckets = peel(send);

  printf("\n%-22s %16s %16s %12s\n", "component (Kcycles/op)", "Build-Index", "Send-Index",
         "reduction");
  auto row = [&](const char* name, uint64_t b_ns, uint64_t s_ns) {
    const double b = KcyclesPerOp(b_ns, build.ops);
    const double s = KcyclesPerOp(s_ns, send.ops);
    const double reduction = b > 0 ? (1.0 - s / b) * 100.0 : 0.0;
    printf("%-22s %16.2f %16.2f %11.1f%%\n", name, b, s, reduction);
  };
  row("Insert in L0", build_buckets.insert_l0, send_buckets.insert_l0);
  row("KV log replication", build_buckets.log_repl, send_buckets.log_repl);
  row("Compaction", build_buckets.compaction, send_buckets.compaction);
  row("Send index", build_buckets.send_index, send_buckets.send_index);
  row("Rewrite index", build_buckets.rewrite, send_buckets.rewrite);
  row("Other", build_buckets.other, send_buckets.other);
  row("Total", build.cpu_ns, send.cpu_ns);

  // The primary compaction pipeline by stage (wall time inside the
  // compaction bucket — merge, B+ tree build, and the observer/ship
  // callbacks; queue wait is the seal-to-pickup latency, near zero when jobs
  // run inline). These don't peel — they break the compaction row open.
  printf("\n%-22s %16s %16s\n", "pipeline stage", "Build-Index", "Send-Index");
  auto stage_row = [&](const char* name, uint64_t b_ns, uint64_t s_ns) {
    printf("%-22s %16.2f %16.2f\n", name, KcyclesPerOp(b_ns, build.ops),
           KcyclesPerOp(s_ns, send.ops));
  };
  stage_row("  queue wait", build.cpu.compaction_queue_wait_ns,
            send.cpu.compaction_queue_wait_ns);
  stage_row("  merge", build.cpu.compaction_merge_ns, send.cpu.compaction_merge_ns);
  stage_row("  tree build", build.cpu.compaction_build_ns, send.cpu.compaction_build_ns);
  stage_row("  observer/ship", build.cpu.compaction_ship_ns, send.cpu.compaction_ship_ns);

  const double compaction_total_build = KcyclesPerOp(build_buckets.compaction, build.ops);
  const double compaction_total_send = KcyclesPerOp(
      send_buckets.compaction + send_buckets.send_index + send_buckets.rewrite, send.ops);
  printf("\nShape check: total index-maintenance (compaction+send+rewrite):\n"
         "  Build-Index %.2f vs Send-Index %.2f Kcycles/op (%.1f%% reduction; paper: 41.6%%)\n",
         compaction_total_build, compaction_total_send,
         (1.0 - compaction_total_send / compaction_total_build) * 100.0);
  printf("Total cycles/op reduction: %.1f%% (paper: 23.1%%)\n",
         (1.0 - static_cast<double>(send.cpu_ns) / static_cast<double>(send.ops) /
                    (static_cast<double>(build.cpu_ns) / static_cast<double>(build.ops))) *
             100.0);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tebis

int main() { return tebis::bench::Main(); }
