#include "common.h"

#include <sched.h>
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"

namespace remacbench {

using remac::DenseMatrix;
using remac::Matrix;
using remac::RtValue;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int SpanRecorder::Begin(const char* name, int64_t op, int parent) {
  if (!enabled()) return -1;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, op, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int SpanRecorder::Add(const char* name, int64_t op, int parent,
                      Clock::time_point start, Clock::time_point end) {
  if (!enabled()) return -1;
  auto offset = [this](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch_).count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, op, parent, offset(start), offset(end)});
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::Now() const { return SecondsSince(epoch_); }

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        spans_[i].end - spans_[i].start - child_seconds[i];
  }
  return self;
}

double SpanRecorder::ChildCoverage(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  double root_seconds = 0.0;
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.name == root) {
      root_seconds += span.end - span.start;
    } else if (span.parent >= 0 &&
               spans_[static_cast<size_t>(span.parent)].name == root &&
               spans_[static_cast<size_t>(span.parent)].parent < 0) {
      covered += span.end - span.start;
    }
  }
  return root_seconds > 0.0 ? covered / root_seconds : 0.0;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\": %s, \"op\": %lld, \"id\": %zu, "
                 "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}",
                 i > 0 ? "," : "", JsonString(s.name).c_str(),
                 static_cast<long long>(s.op), i, s.parent, s.start, s.end);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail TailLatency(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  tail.value = values.back();
  for (int p = 99; p >= 50; --p) {
    // Nearest rank: the smallest k with k >= p% of n.
    const int64_t k = (p * n + 99) / 100;
    if (n - k >= 10) {
      tail.percentile = p;
      tail.value = values[static_cast<size_t>(k - 1)];
      tail.beyond = n - k;
      return tail;
    }
  }
  return tail;
}

namespace {

uint64_t Bits(double v) {
  if (v == 0.0) v = 0.0;  // fold -0.0 into +0.0
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

DenseMatrix AsDense(const RtValue& value) { return value.AsMatrix().ToDense(); }

bool SameShape(const RtValue& a, const RtValue& b) {
  if (a.is_scalar != b.is_scalar) return false;
  if (a.is_scalar) return true;
  return a.matrix.rows() == b.matrix.rows() &&
         a.matrix.cols() == b.matrix.cols();
}

}  // namespace

bool EnvBitwiseEqual(const std::map<std::string, RtValue>& a,
                     const std::map<std::string, RtValue>& b,
                     std::string* why) {
  if (a.size() != b.size()) {
    *why = "environments hold different variable counts";
    return false;
  }
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end() || !SameShape(value, it->second)) {
      *why = "variable '" + name + "' missing or reshaped";
      return false;
    }
    if (value.is_scalar) {
      if (Bits(value.scalar) != Bits(it->second.scalar)) {
        *why = "scalar '" + name + "' differs";
        return false;
      }
      continue;
    }
    const DenseMatrix x = AsDense(value);
    const DenseMatrix y = AsDense(it->second);
    for (int64_t i = 0; i < x.size(); ++i) {
      if (Bits(x.data()[i]) != Bits(y.data()[i])) {
        *why = "matrix '" + name + "' differs at element " + std::to_string(i);
        return false;
      }
    }
  }
  return true;
}

bool EnvWithinUlps(const std::map<std::string, RtValue>& actual,
                   const std::map<std::string, RtValue>& reference,
                   const std::vector<std::string>& names, double max_ulps,
                   double* worst_ulps, std::string* why) {
  *worst_ulps = 0.0;
  for (const std::string& name : names) {
    const auto a = actual.find(name);
    const auto r = reference.find(name);
    if (a == actual.end() || r == reference.end() ||
        !SameShape(a->second, r->second)) {
      *why = "output '" + name + "' missing or reshaped";
      return false;
    }
    const DenseMatrix x = AsDense(a->second);
    const DenseMatrix y = AsDense(r->second);
    double scale = 0.0;
    for (int64_t i = 0; i < y.size(); ++i) {
      scale = std::max(scale, std::fabs(y.data()[i]));
    }
    const double ulp = std::max(scale, std::numeric_limits<double>::min()) *
                       std::numeric_limits<double>::epsilon();
    for (int64_t i = 0; i < x.size(); ++i) {
      const double diff = std::fabs(x.data()[i] - y.data()[i]);
      const bool same_nonfinite = !std::isfinite(x.data()[i]) &&
                                  Bits(x.data()[i]) == Bits(y.data()[i]);
      if (same_nonfinite) continue;
      const double ulps = diff / ulp;
      if (!(ulps <= max_ulps)) {  // also catches NaN
        *why = "output '" + name + "' element " + std::to_string(i) +
               " is " + std::to_string(ulps) + " ULPs of scale away";
        *worst_ulps = ulps;
        return false;
      }
      *worst_ulps = std::max(*worst_ulps, ulps);
    }
  }
  return true;
}

uint64_t EnvDigest(const std::map<std::string, RtValue>& env,
                   const std::vector<std::string>& names) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over 64-bit words
  auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 1099511628211ull;
  };
  for (const std::string& name : names) {
    for (const char c : name) mix(static_cast<unsigned char>(c));
    const auto it = env.find(name);
    if (it == env.end()) continue;
    const RtValue& value = it->second;
    if (value.is_scalar) {
      mix(Bits(value.scalar));
      continue;
    }
    mix(static_cast<uint64_t>(value.matrix.rows()));
    mix(static_cast<uint64_t>(value.matrix.cols()));
    const DenseMatrix dense = AsDense(value);
    for (int64_t i = 0; i < dense.size(); ++i) mix(Bits(dense.data()[i]));
  }
  return h;
}

void CorruptEnv(std::map<std::string, RtValue>* env) {
  for (auto& [name, value] : *env) {
    if (value.is_scalar) {
      uint64_t bits = Bits(value.scalar) ^ 1u;
      std::memcpy(&value.scalar, &bits, sizeof(bits));
      return;
    }
    if (value.matrix.rows() * value.matrix.cols() == 0) continue;
    DenseMatrix dense = value.matrix.ToDense();
    uint64_t bits = Bits(dense.data()[0]) ^ 1u;
    std::memcpy(&dense.data()[0], &bits, sizeof(bits));
    value.matrix = Matrix::WrapDense(std::move(dense));
    return;
  }
}

void ForEachOnThreads(int threads, size_t count,
                      const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < count; i = next++) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

namespace {

const char* const kCounters[] = {
    "remac.executor.ops",           "remac.kernel.multiplies",
    "remac.fusion.regions",         "remac.fusion.bytes_avoided",
    "remac.search.windows_visited", "remac.probe.evaluations",
    "remac.plancache.invalidations", "remac.matcache.invalidations",
    "remac.matcache.probes",        "remac.matcache.hits",
};
const char* const kGauges[] = {
    "remac.ledger.flops",           "remac.ledger.broadcast_bytes",
    "remac.ledger.shuffle_bytes",   "remac.ledger.collection_bytes",
    "remac.ledger.dfs_bytes",
};
const char* const kHistogramSums[] = {
    "remac.executor.multiply_seconds",
    "remac.executor.elementwise_seconds",
    "remac.service.flight_wait_seconds",
    "remac.matcache.flight_wait_seconds",
    "remac.contention.plancache_lock_seconds",
    "remac.contention.matcache_lock_seconds",
};

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  remac::MetricsRegistry& registry = remac::MetricsRegistry::Global();
  RegistrySnapshot snap;
  for (const char* name : kCounters) {
    snap.values[name] =
        static_cast<double>(registry.GetCounter(name)->Value());
  }
  for (const char* name : kGauges) {
    snap.values[name] = registry.GetGauge(name)->Value();
  }
  for (const char* name : kHistogramSums) {
    snap.values[name] = registry.GetHistogram(name)->Sum();
  }
  return snap;
}

RegistrySnapshot RegistrySnapshot::Minus(const RegistrySnapshot& before) const {
  RegistrySnapshot delta;
  for (const auto& [name, value] : values) {
    delta.values[name] = value - before.Get(name);
  }
  return delta;
}

double RegistrySnapshot::Get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double GemmProbeGflops(uint64_t seed) {
  remac::DatasetSpec spec;
  spec.rows = 120000;
  spec.sparsity = 1.0;
  spec.cols = 47;
  spec.seed = 7001 + seed;
  const Matrix v = remac::GenerateMatrix(spec);
  spec.cols = 10;
  spec.seed = 7002 + seed;
  const Matrix w = remac::GenerateMatrix(spec);
  spec.rows = 10;
  spec.cols = 47;
  spec.seed = 7003 + seed;
  const Matrix h = remac::GenerateMatrix(spec);
  const double flops = 2.0 * 120000.0 * 10.0 * 47.0;
  std::vector<double> gflops;
  for (int rep = 0; rep < 6; ++rep) {
    const bool wt_v = rep % 2 == 0;
    const double start = ThreadCpuSeconds();
    const auto product = wt_v ? remac::MultiplyTransposed(w, true, v, false)
                              : remac::MultiplyTransposed(v, false, h, true);
    const double seconds = ThreadCpuSeconds() - start;
    if (!product.ok()) return 0.0;
    gflops.push_back(flops / seconds / 1e9);
  }
  return Median(gflops);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumberList(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    out += (out.empty() ? "" : ", ") + remac::StringFormat("%.4f", v);
  }
  return "[" + out + "]";
}

}  // namespace remacbench
