#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span: a call into one layer of the program, timed from the
/// benchmark's side of the call.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t trace = 0;   // id of the root span this one descends from
  std::string layer;   // "engine", "core", "serve", ...
  std::string name;
  double start_s = 0;  // seconds since the recorder was created
  double end_s = 0;
};

/// In-memory span recorder. Spans nest per thread: a span opened while
/// another is open on the same thread becomes its child, and a span opened
/// with an explicit parent (a client thread's request under the
/// coordinator's round) records that parent instead. Disabled recorders
/// read no clock and store nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* layer, std::string name,
          int64_t explicit_parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Id of this span (0 when recording is off), usable as an explicit
    /// parent on another thread.
    int64_t id() const { return span_.id; }

   private:
    SpanRecorder* recorder_ = nullptr;
    Span span_;
    int64_t saved_parent_ = 0;
    int64_t saved_trace_ = 0;
  };

  /// All closed spans, in closing order.
  std::vector<Span> spans() const;

  /// Self time per layer: each span's duration minus the part of its
  /// interval that its child spans cover, summed by layer.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes the spans as a JSON array of objects to `path`, alongside the
  /// given top-level fields (already JSON-encoded values). Returns false on
  /// an I/O error.
  bool WriteJson(const std::string& path,
                 const std::map<std::string, std::string>& fields) const;

 private:
  double Now() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  int64_t next_id_ = 1;  // guarded by mutex_
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
