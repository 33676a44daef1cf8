#include "obs/trace_export.hpp"

#include <sstream>

#include "obs/json_lint.hpp"
#include "sim/json.hpp"
#include "support/error.hpp"

namespace postal::obs {
namespace {

// Accumulates trace_event objects and renders the enclosing JSON object.
class TraceWriter {
 public:
  explicit TraceWriter(const ChromeTraceOptions& options) : options_(options) {
    events_.precision(15);  // "ts" doubles must survive large timelines
  }

  void thread_names(std::uint64_t n, const char* prefix) {
    if (!options_.thread_names) return;
    for (std::uint64_t p = 0; p < n; ++p) {
      begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << p
              << ",\"args\":{\"name\":\"" << prefix << p << "\"}}";
    }
  }

  /// One complete ("ph":"X") event covering [start, start + length) model
  /// time on track `tid`; `args_json` is a preformatted JSON object body.
  void duration(const std::string& name, std::uint64_t tid, const Rational& start,
                const Rational& length, const std::string& args_json) {
    begin() << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"X\",\"pid\":0"
            << ",\"tid\":" << tid
            << ",\"ts\":" << start.to_double() * options_.micros_per_unit
            << ",\"dur\":" << length.to_double() * options_.micros_per_unit
            << ",\"args\":{" << args_json << "}}";
  }

  /// One instant ("ph":"i", thread scope) marker at model time `at` on
  /// track `tid`.
  void instant(const std::string& name, std::uint64_t tid, const Rational& at,
               const std::string& args_json) {
    begin() << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"i\",\"s\":\"t\""
            << ",\"pid\":0,\"tid\":" << tid
            << ",\"ts\":" << at.to_double() * options_.micros_per_unit
            << ",\"args\":{" << args_json << "}}";
  }

  /// Render, lint, and return the finished document.
  [[nodiscard]] std::string finish() {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out += events_.str();
    out += "]}";
    if (const auto err = json_lint(out)) {
      throw LogicError("chrome trace exporter produced invalid JSON: " + *err);
    }
    return out;
  }

 private:
  std::ostringstream& begin() {
    if (!first_) events_ << ",";
    first_ = false;
    return events_;
  }

  ChromeTraceOptions options_;
  std::ostringstream events_;
  bool first_ = true;
};

// Shared by the Trace and Schedule exporters: both reduce to a list of
// (src, dst, msg, send_start) sends under a common lambda.
void emit_send(TraceWriter& writer, ProcId src, ProcId dst, MsgId msg,
               const Rational& start, const Rational& lambda) {
  // Appended, not "M" + ...: GCC 12 at -O3 reports a false
  // -Werror=restrict inside operator+ on a temporary string.
  const std::string id = std::string("M").append(std::to_string(msg + 1));
  std::ostringstream args;
  args << "\"msg\":" << msg << ",\"t\":\"" << start.str() << "\"";
  writer.duration("send " + id + " -> p" + std::to_string(dst), src, start,
                  Rational(1), args.str() + ",\"dst\":" + std::to_string(dst));
  const Rational recv_start = start + lambda - Rational(1);
  writer.duration("recv " + id + " <- p" + std::to_string(src), dst, recv_start,
                  Rational(1), args.str() + ",\"src\":" + std::to_string(src));
}

// Marker names per fault kind; the affected processor's track hosts the
// event, the other endpoint rides in "args".
const char* fault_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kSendSuppressed: return "send suppressed (dead)";
    case FaultEvent::Kind::kDropCrash: return "drop (receiver dead)";
    case FaultEvent::Kind::kDropLoss: return "drop (link loss)";
    case FaultEvent::Kind::kSpike: return "latency spike";
  }
  return "fault";
}

void emit_faults(TraceWriter& writer, const FaultStats& faults) {
  for (const FaultEvent& e : faults.events) {
    std::ostringstream args;
    args << "\"t\":\"" << e.time.str() << "\"";
    if (e.peer != e.proc) args << ",\"peer\":" << e.peer;
    writer.instant(fault_name(e.kind), e.proc, e.time, args.str());
  }
}

}  // namespace

std::string trace_to_chrome_json(const Trace& trace, const PostalParams& params,
                                 const ChromeTraceOptions& options) {
  TraceWriter writer(options);
  writer.thread_names(trace.n(), "p");
  for (const Delivery& d : trace.deliveries()) {
    emit_send(writer, d.src, d.dst, d.msg, d.send_start, params.lambda());
  }
  return writer.finish();
}

std::string trace_to_chrome_json(const Trace& trace, const PostalParams& params,
                                 const FaultStats& faults,
                                 const ChromeTraceOptions& options) {
  TraceWriter writer(options);
  writer.thread_names(trace.n(), "p");
  for (const Delivery& d : trace.deliveries()) {
    emit_send(writer, d.src, d.dst, d.msg, d.send_start, params.lambda());
  }
  emit_faults(writer, faults);
  return writer.finish();
}

std::string trace_to_chrome_json(const Trace& trace, const PostalParams& params,
                                 const FaultStats& faults,
                                 const std::vector<TraceMarker>& markers,
                                 const ChromeTraceOptions& options) {
  TraceWriter writer(options);
  writer.thread_names(trace.n(), "p");
  for (const Delivery& d : trace.deliveries()) {
    emit_send(writer, d.src, d.dst, d.msg, d.send_start, params.lambda());
  }
  emit_faults(writer, faults);
  for (const TraceMarker& m : markers) {
    std::string args = "\"t\":\"" + m.time.str() + "\"";
    if (!m.args_json.empty()) args += "," + m.args_json;
    writer.instant(m.name, m.proc, m.time, args);
  }
  return writer.finish();
}

std::string schedule_to_chrome_json(const Schedule& schedule,
                                    const PostalParams& params,
                                    const ChromeTraceOptions& options) {
  TraceWriter writer(options);
  writer.thread_names(params.n(), "p");
  for (const SendEvent& e : schedule.events()) {
    emit_send(writer, e.src, e.dst, e.msg, e.t, params.lambda());
  }
  return writer.finish();
}

std::string net_to_chrome_json(const std::vector<NetDelivery>& deliveries,
                               std::uint64_t n, const ChromeTraceOptions& options) {
  TraceWriter writer(options);
  writer.thread_names(n, "node");
  for (const NetDelivery& d : deliveries) {
    std::ostringstream args;
    args << "\"src\":" << d.src << ",\"msg\":" << d.msg << ",\"requested\":\""
         << d.requested.str() << "\",\"delivered\":\"" << d.delivered.str() << "\"";
    writer.duration(
        "packet M" + std::to_string(d.msg + 1) + " <- node" + std::to_string(d.src),
        d.dst, d.requested, d.delivered - d.requested, args.str());
  }
  return writer.finish();
}

}  // namespace postal::obs
