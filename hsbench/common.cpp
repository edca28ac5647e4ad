// Clocks, host facts, artifact output, and the span log.
#include <time.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "hetscale/run/result.hpp"

namespace hsbench {

double monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

void write_artifact(const std::string& dir, const std::string& name,
                    const std::string& content) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

int SpanLog::open(std::string name, std::string detail, int parent) {
  const double start = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), std::move(detail), parent, start, start});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  const double end = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_s = end;
}

double SpanLog::seconds(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  return span.end_s - span.start_s;
}

std::string SpanLog::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os.precision(9);
  os << "{\"workload\": ";
  hetscale::run::write_json_string(os, workload_);
  os << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i
       << ", \"parent\": " << span.parent << ", \"name\": ";
    hetscale::run::write_json_string(os, span.name);
    os << ", \"detail\": ";
    hetscale::run::write_json_string(os, span.detail);
    os << ", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s
       << "}";
  }
  os << "\n]}\n";
  return os.str();
}

namespace {
thread_local int current_span = -1;
}  // namespace

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::string detail,
                       int parent)
    : log_(log) {
  if (log_ == nullptr) return;
  id_ = log_->open(std::move(name), std::move(detail),
                   parent == kInherit ? current_span : parent);
  previous_ = current_span;
  current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->close(id_);
  current_span = previous_;
}

}  // namespace hsbench
