#include "trace.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  spans_[static_cast<std::size_t>(index)].start_ms = now_ms();
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double end = now_ms();
  spans_[static_cast<std::size_t>(index)].end_ms = end;
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("perfbench: spans closed out of order");
  stack_.pop_back();
}

void Tracer::clear() {
  spans_.clear();
  stack_.clear();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += d;
    t.self_ms += d - child_ms[i];
  }
  return out;
}

double Tracer::root_ms_since(std::size_t first) const {
  double sum = 0.0;
  for (std::size_t i = first; i < spans_.size(); ++i)
    if (spans_[i].parent < 0) sum += spans_[i].end_ms - spans_[i].start_ms;
  return sum;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double span_mean_ms(const std::map<std::string, Tracer::Totals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(it->second.count);
}

double span_self_ms(const std::map<std::string, Tracer::Totals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_ms;
}

std::int64_t span_count(const std::map<std::string, Tracer::Totals>& totals,
                        const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.count;
}

double tail_p(std::size_t n) {
  if (n >= 1000) return 99.0;
  if (n >= 100) return 90.0;
  return 50.0;
}

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("perfbench: metric " + name + " is not finite");
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

bool MetricSet::has(const std::string& name) const {
  for (const auto& item : items_)
    if (item.first == name) return true;
  return false;
}

double MetricSet::get(const std::string& name) const {
  for (const auto& item : items_)
    if (item.first == name) return item.second.first;
  throw std::logic_error("perfbench: no metric " + name);
}

void MetricSet::merge(const MetricSet& other) {
  for (const auto& item : other.items_)
    if (!has(item.first)) items_.push_back(item);
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", items_[i].second.first);
    out += "\"" + items_[i].first + "\": {\"value\": " + buf + ", \"unit\": \"" +
           items_[i].second.second + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
