#include "spans.hpp"

#include <algorithm>

namespace perfbench {

Tracer::NameId Tracer::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<NameId>(it - names_.begin());
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void Tracer::begin() {
  Open open;
  if (records_.size() < max_records_) {
    Record rec;
    rec.parent = stack_.empty() ? kNone : stack_.back().record;
    rec.op = op_;
    open.record = static_cast<std::uint32_t>(records_.size());
    records_.push_back(rec);
  } else {
    ++dropped_;
  }
  open.start_ns = now_ns();
  stack_.push_back(open);
}

Tracer::Closed Tracer::end(NameId name) {
  const std::int64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const Closed closed{end - open.start_ns, open.child_ns};
  Totals& t = totals_[name];
  ++t.count;
  t.total_ns += closed.duration_ns;
  t.child_ns += closed.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += closed.duration_ns;
  if (open.record != kNone) {
    Record& rec = records_[open.record];
    rec.name = name;
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
  }
  return closed;
}

double Tracer::mean_s(NameId name) const {
  const Totals& t = totals_[name];
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.total_ns) * 1e-9 /
                            static_cast<double>(t.count);
}

void Tracer::write_json(std::ostream& out, const std::string& workload,
                        std::uint64_t seed) const {
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"dropped_spans\":" << dropped_ << ",\"layers\":{";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Totals& t = totals_[i];
    out << (i == 0 ? "" : ",") << '"' << names_[i] << "\":{\"count\":" << t.count
        << ",\"total_ns\":" << t.total_ns
        << ",\"self_ns\":" << t.total_ns - t.child_ns << '}';
  }
  out << "},\"spans\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << names_[r.name]
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":";
    if (r.parent == kNone) {
      out << "null";
    } else {
      out << r.parent;
    }
    out << ",\"op\":" << r.op << '}';
  }
  out << "]}\n";
}

}  // namespace perfbench
