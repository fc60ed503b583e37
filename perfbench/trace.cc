#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/logging.h"

namespace perfbench {

uint64_t Tracer::Begin(const std::string& name, int64_t query) {
  if (!enabled_) return 0;
  Record r;
  r.name = name;
  r.layer = name.substr(0, name.find('.'));
  r.id = records_.size() + 1;
  r.parent = open_.empty() ? 0 : open_.back();
  r.query = query;
  r.start_ns = NowNs();
  records_.push_back(std::move(r));
  open_.push_back(records_.back().id);
  return records_.back().id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_) return;
  NTADOC_CHECK(!open_.empty() && open_.back() == id)
      << "spans must close innermost first";
  records_[id - 1].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, uint64_t> Tracer::SelfTimeNs(uint64_t since_ns) const {
  // Children of one span never overlap (one driving thread), so the time
  // they cover is the sum of their durations.
  std::vector<uint64_t> child_ns(records_.size() + 1, 0);
  for (const Record& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, uint64_t> self;
  for (const Record& r : records_) {
    if (r.start_ns < since_ns) continue;
    const uint64_t dur = r.end_ns - r.start_ns;
    self[r.layer] += dur - std::min(dur, child_ns[r.id]);
  }
  return self;
}

ntadoc::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return ntadoc::Status::IoError("cannot write " + path);
  const uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f.get(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f.get(),
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"query\": "
                 "%lld, \"start_ns\": %llu, \"end_ns\": %llu}}",
                 i == 0 ? "" : ",", r.name.c_str(), r.layer.c_str(),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<long long>(r.query),
                 static_cast<unsigned long long>(r.start_ns - origin),
                 static_cast<unsigned long long>(r.end_ns - origin));
  }
  std::fprintf(f.get(), "\n]}\n");
  return ntadoc::Status::OK();
}

}  // namespace perfbench
