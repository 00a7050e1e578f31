// In-memory span recorder for the traced run.
//
// The benchmark wraps every call it makes into a layer of the library in a
// span: name, start, end, the span that caused it (the enclosing span on the
// same thread) and an operation id shared by all spans of one operation (one
// closed-loop batch, one wave epoch, one simulator epoch, one probe).  Spans
// stay in memory and are written out when the run ends, together with a
// self-time report: a span's duration minus the part of it that its child
// spans cover.
//
// `Tracer::time()` always measures the call (end-to-end metrics need the
// duration in untraced runs too) and records the span only when tracing is
// on, so untraced runs pay two clock reads and nothing else.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace lar::bench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// A fresh operation id (shared by the spans of one operation).
  std::uint64_t new_op();

  /// Opens a span on the calling thread; `op` 0 inherits the parent's
  /// operation.  Returns 0 (and records nothing) when tracing is off.
  std::uint64_t begin(const char* name, std::uint64_t op = 0);
  void end(std::uint64_t id);

  /// Runs `fn` inside a span named `name` and returns its wall time in s.
  template <typename Fn>
  double time(const char* name, Fn&& fn, std::uint64_t op = 0) {
    const std::uint64_t id = begin(name, op);
    const std::int64_t t0 = now_ns();
    std::forward<Fn>(fn)();
    const std::int64_t t1 = now_ns();
    end(id);
    return seconds_between(t0, t1);
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op = 0)
        : tracer_(tracer), id_(tracer.begin(name, op)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

  /// Per span name: count, total and self time (s), sorted by self time.
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_time_report() const;

  /// Writes every span and the self-time report as JSON.  Returns false if
  /// the file cannot be written.
  bool write_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  mutable std::mutex mutex_;  // guards every member below
  std::vector<Span> spans_;   // index = id - 1
  std::uint64_t next_op_ = 1;
  std::uint32_t next_thread_ = 0;
};

}  // namespace lar::bench
