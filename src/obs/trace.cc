#include "obs/trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace nmcdr {
namespace obs {

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

TraceSpan::TraceSpan(const char* name, MetricsRegistry& registry)
    : count_(nullptr), hist_(nullptr), start_ns_(0) {
  if (!MetricsEnabled()) return;
  const std::string base = std::string("span.") + name;
  count_ = &registry.GetCounter(base + ".count");
  hist_ = &registry.GetHistogram(
      base + ".seconds", MetricsRegistry::DefaultTimeBucketsSeconds());
  start_ns_ = NowNs();
}

TraceSpan::~TraceSpan() {
  if (count_ == nullptr) return;
  count_->Add(1);
  hist_->Record(static_cast<double>(NowNs() - start_ns_) * 1e-9);
}

double TraceSpan::ElapsedSeconds() const {
  if (count_ == nullptr) return 0.0;
  return static_cast<double>(NowNs() - start_ns_) * 1e-9;
}

// ---------------------------------------------------------------------------
// Op table
// ---------------------------------------------------------------------------

namespace {

struct OpTable {
  std::mutex mu;
  // std::map: stable element addresses + sorted snapshot order for free.
  std::map<std::string, std::unique_ptr<OpStats>> by_name;
};

OpTable& GlobalOpTable() {
  // Leaked so probes in static destructors stay safe.
  static OpTable* const t =
      new OpTable();  // NMCDR_LINT_ALLOW(naked-new): intentional leak
  return *t;
}

}  // namespace

OpStats& OpStats::ForName(const char* name) {
  OpTable& table = GlobalOpTable();
  std::lock_guard<std::mutex> lock(table.mu);
  std::unique_ptr<OpStats>& slot = table.by_name[name];
  if (!slot) slot = std::make_unique<OpStats>();
  return *slot;
}

std::vector<OpStatsRow> SnapshotOpStats() {
  OpTable& table = GlobalOpTable();
  std::lock_guard<std::mutex> lock(table.mu);
  std::vector<OpStatsRow> rows;
  rows.reserve(table.by_name.size());
  for (const auto& kv : table.by_name) {
    const OpStats& s = *kv.second;
    OpStatsRow row;
    row.name = kv.first;
    row.forward_calls = s.forward_calls.load(std::memory_order_relaxed);
    row.forward_ns = s.forward_ns.load(std::memory_order_relaxed);
    row.backward_calls = s.backward_calls.load(std::memory_order_relaxed);
    row.backward_ns = s.backward_ns.load(std::memory_order_relaxed);
    if (row.forward_calls != 0 || row.backward_calls != 0) {
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

void RecordBackward(const char* op, int64_t ns) {
  // The tape passes op-name string literals, so pointer identity is a
  // near-perfect cache key; a re-literal in another TU just costs one
  // extra ForName.
  thread_local std::unordered_map<const void*, OpStats*> cache;
  OpStats*& entry = cache[static_cast<const void*>(op)];
  if (entry == nullptr) entry = &OpStats::ForName(op);
  entry->backward_calls.fetch_add(1, std::memory_order_relaxed);
  entry->backward_ns.fetch_add(ns, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Kernel table
// ---------------------------------------------------------------------------

const char* KernelName(Kernel k) {
  switch (k) {
    case Kernel::kMatMulAccumInto: return "MatMulAccumInto";
    case Kernel::kMatMulTransA: return "MatMulTransA";
    case Kernel::kMatMulTransB: return "MatMulTransB";
    case Kernel::kTranspose: return "Transpose";
    case Kernel::kAdd: return "Add";
    case Kernel::kSub: return "Sub";
    case Kernel::kHadamard: return "Hadamard";
    case Kernel::kAxpby: return "Axpby";
    case Kernel::kAxpyInto: return "AxpyInto";
    case Kernel::kScale: return "Scale";
    case Kernel::kAddScalar: return "AddScalar";
    case Kernel::kAddRowBroadcast: return "AddRowBroadcast";
    case Kernel::kRelu: return "Relu";
    case Kernel::kSigmoid: return "Sigmoid";
    case Kernel::kTanh: return "Tanh";
    case Kernel::kSoftplus: return "Softplus";
    case Kernel::kExp: return "Exp";
    case Kernel::kLog: return "Log";
    case Kernel::kSoftmaxRows: return "SoftmaxRows";
    case Kernel::kRowSum: return "RowSum";
    case Kernel::kRowDot: return "RowDot";
    case Kernel::kColSum: return "ColSum";
    case Kernel::kGatherRows: return "GatherRows";
    case Kernel::kScatterAddRows: return "ScatterAddRows";
    case Kernel::kConcatCols: return "ConcatCols";
    case Kernel::kSpMM: return "SpMM";
    case Kernel::kSpMMTransposed: return "SpMMTransposed";
    case Kernel::kFusedMatMulBiasAct: return "FusedMatMulBiasAct";
    case Kernel::kFusedEltwise: return "FusedEltwise";
    case Kernel::kCount: break;
  }
  return "?";
}

namespace internal {

KernelSlot& KernelSlotFor(Kernel k) {
  static KernelSlot slots[static_cast<int>(Kernel::kCount)];
  return slots[static_cast<int>(k)];
}

}  // namespace internal

std::vector<KernelStatsRow> SnapshotKernelStats() {
  std::vector<KernelStatsRow> rows;
  rows.reserve(static_cast<size_t>(Kernel::kCount));
  for (int i = 0; i < static_cast<int>(Kernel::kCount); ++i) {
    const Kernel k = static_cast<Kernel>(i);
    const internal::KernelSlot& s = internal::KernelSlotFor(k);
    KernelStatsRow row;
    row.kernel = k;
    row.calls = s.calls.load(std::memory_order_relaxed);
    row.flops = s.flops.load(std::memory_order_relaxed);
    row.ns = s.ns.load(std::memory_order_relaxed);
    if (row.calls != 0) rows.push_back(row);
  }
  return rows;
}

void ResetOpAndKernelStats() {
  {
    OpTable& table = GlobalOpTable();
    std::lock_guard<std::mutex> lock(table.mu);
    for (auto& kv : table.by_name) {
      kv.second->forward_calls.store(0, std::memory_order_relaxed);
      kv.second->forward_ns.store(0, std::memory_order_relaxed);
      kv.second->backward_calls.store(0, std::memory_order_relaxed);
      kv.second->backward_ns.store(0, std::memory_order_relaxed);
    }
  }
  for (int i = 0; i < static_cast<int>(Kernel::kCount); ++i) {
    internal::KernelSlot& s = internal::KernelSlotFor(static_cast<Kernel>(i));
    s.calls.store(0, std::memory_order_relaxed);
    s.flops.store(0, std::memory_order_relaxed);
    s.ns.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace nmcdr
