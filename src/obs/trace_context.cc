#include "obs/trace_context.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/string_util.h"
#include "sched/thread_pool.h"

namespace remac {

namespace {

/// Process-wide count of traced requests; the Tracer constructor touches
/// it so the name is registered even while tracing stays disabled. Spans
/// and drops are counted once, per trace (RequestTrace::size, dropped).
Counter* TracedRequests() {
  static Counter* requests =
      MetricsRegistry::Global().GetCounter("remac.trace.requests");
  return requests;
}

double SteadyMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for span labels.
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

thread_local TraceContext tl_context;

}  // namespace

double TraceNowMicros() {
  // The origin is captured once, on the first call, and shared by every
  // span in the process, so spans recorded on different threads of one
  // request share one Chrome-trace timeline.
  static const double origin = SteadyMicros();
  return SteadyMicros() - origin;
}

RequestTrace::RequestTrace(uint64_t request_id)
    : request_id_(request_id), start_us_(TraceNowMicros()) {}

void RequestTrace::Record(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

void RequestTrace::CloseRoot(std::string name) {
  TraceSpan root;
  root.id = kRootSpanId;
  root.parent = 0;
  root.name = std::move(name);
  root.category = "request";
  root.thread = ThreadPool::CurrentWorkerId();
  root.start_us = start_us_;
  root.duration_us = TraceNowMicros() - start_us_;
  Record(std::move(root));
}

std::vector<TraceSpan> RequestTrace::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t RequestTrace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

int64_t RequestTrace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string RequestTrace::ToChromeJson() const {
  const std::vector<TraceSpan> spans = Spans();
  std::string out = StringFormat(
      "{\"remac\":{\"request_id\":%llu,\"dropped\":%lld},\n"
      "\"traceEvents\":[\n",
      static_cast<unsigned long long>(request_id_),
      static_cast<long long>(dropped()));
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    out += StringFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
        "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"span_id\":%llu,\"parent\":%llu,\"request_id\":%llu}}"
        "%s\n",
        JsonEscape(s.name).c_str(), s.category, s.thread,
        s.start_us - start_us_, s.duration_us,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(request_id_),
        i + 1 < spans.size() ? "," : "");
  }
  out += "]}\n";
  return out;
}

Status RequestTrace::WriteChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Internal("cannot open trace file '" + path + "'");
  }
  const std::string json = ToChromeJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::Internal("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

const TraceContext& CurrentTraceContext() { return tl_context; }

TraceContext SwapCurrentTraceContext(TraceContext ctx) {
  TraceContext prev = std::move(tl_context);
  tl_context = std::move(ctx);
  return prev;
}

TraceContextScope::TraceContextScope(TraceContext ctx) {
  // Empty-over-empty skips the swap entirely — the common untraced path
  // pays one thread-local null check.
  if (ctx.active() || tl_context.active()) {
    saved_ = SwapCurrentTraceContext(std::move(ctx));
    swapped_ = true;
  }
}

TraceContextScope::~TraceContextScope() {
  if (swapped_) SwapCurrentTraceContext(std::move(saved_));
}

Tracer::Tracer() {
  TracedRequests();  // registered up front, even when disabled
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  if (on) profiling_.store(true, std::memory_order_relaxed);
}

void Tracer::SetProfiling(bool on) {
  profiling_.store(on, std::memory_order_relaxed);
}

std::shared_ptr<RequestTrace> Tracer::StartRequest() {
  if (!enabled()) return nullptr;
  TracedRequests()->Add();
  return std::make_shared<RequestTrace>(
      next_request_id_.fetch_add(1, std::memory_order_relaxed));
}

void RecordSpanIn(const TraceContext& ctx, std::string name,
                  const char* category, double start_us, double end_us) {
  if (!ctx.active()) return;
  TraceSpan span;
  span.id = ctx.trace->NextSpanId();
  span.parent = ctx.parent_span;
  span.name = std::move(name);
  span.category = category;
  span.thread = ThreadPool::CurrentWorkerId();
  span.start_us = start_us;
  span.duration_us = std::max(0.0, end_us - start_us);
  ctx.trace->Record(std::move(span));
}

void RecordWaitSpanIn(const TraceContext& ctx, const char* name,
                      double start_us, double end_us) {
  if (!ctx.active()) return;
  if (end_us - start_us < kWaitSpanFloorUs) return;
  RecordSpanIn(ctx, name, "wait", start_us, end_us);
}

void RecordWaitSpan(const char* name, double start_us, double end_us) {
  RecordWaitSpanIn(tl_context, name, start_us, end_us);
}

ScopedTraceSpan::ScopedTraceSpan(std::string name, const char* category,
                                 bool enter)
    : name_(std::move(name)), category_(category) {
  if (!tl_context.active()) {
    stopped_ = true;  // inactive spans have nothing to do on Stop
    return;
  }
  ctx_ = tl_context;
  id_ = ctx_.trace->NextSpanId();
  start_us_ = TraceNowMicros();
  if (enter) {
    SwapCurrentTraceContext(TraceContext{ctx_.trace, id_});
    entered_ = true;
  }
}

void ScopedTraceSpan::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (entered_) {
    SwapCurrentTraceContext(ctx_);
    entered_ = false;
  }
  TraceSpan span;
  span.id = id_;
  span.parent = ctx_.parent_span;
  span.name = std::move(name_);
  span.category = category_;
  span.thread = ThreadPool::CurrentWorkerId();
  span.start_us = start_us_;
  span.duration_us = std::max(0.0, TraceNowMicros() - start_us_);
  ctx_.trace->Record(std::move(span));
}

TraceContext ScopedTraceSpan::child_context() const {
  if (!ctx_.active()) return TraceContext{};
  return TraceContext{ctx_.trace, id_};
}

TimedMutexLock::TimedMutexLock(std::mutex& mu, Histogram* wait_histogram,
                               const char* name)
    : mu_(mu) {
  if (!Tracer::Global().any_active()) {
    mu_.lock();
    return;
  }
  if (mu_.try_lock()) return;
  const double start_us = TraceNowMicros();
  mu_.lock();
  const double end_us = TraceNowMicros();
  if (wait_histogram != nullptr) {
    wait_histogram->Observe((end_us - start_us) * 1e-6);
  }
  RecordWaitSpanIn(tl_context, name, start_us, end_us);
}

}  // namespace remac
