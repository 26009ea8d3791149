#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace thinc {
namespace {

// THINC_CHECK failure hook: dump the flight recorder before aborting so a
// violated invariant in a long deterministic run leaves a timeline, not just
// a file:line.
void DumpOnCheckFailure(const char* file, int line, const char* cond) {
  std::fprintf(stderr, "flight recorder at CHECK failure (%s:%d: %s):\n", file,
               line, cond);
  Telemetry::Get().DumpFlightRecorder(stderr, "THINC_CHECK failure");
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// The live TelemetryScope's instance; null outside every scope.
Telemetry* g_scoped = nullptr;

}  // namespace

Telemetry& Telemetry::Get() {
  if (g_scoped != nullptr) {
    return *g_scoped;
  }
  static Telemetry* const off = new Telemetry(TelemetryConfig{});
  return *off;
}

Telemetry::Telemetry(const TelemetryConfig& config) : config_(config) {
  if (config_.chrome_trace) {
    // The network emits its instants on pid 0 (the sim) tid 1.
    thread_names_[{0, 1}] = "network";
  }
  if (config_.flight_recorder) {
    flight_.reserve(config_.flight_capacity);
  }
}

TelemetryScope::TelemetryScope(const TelemetryConfig& config)
    : telemetry_(config), previous_hook_(g_check_failure_hook) {
  THINC_CHECK_MSG(g_scoped == nullptr, "telemetry scopes do not nest");
  g_scoped = &telemetry_;
  if (config.flight_recorder) {
    g_check_failure_hook = &DumpOnCheckFailure;
  }
}

TelemetryScope::~TelemetryScope() {
  g_scoped = nullptr;
  g_check_failure_hook = previous_hook_;
}

int Telemetry::RegisterHostAuto(const std::string& prefix) {
  hosts_.push_back(prefix + "#" + std::to_string(hosts_.size() + 1));
  return static_cast<int>(hosts_.size());
}

void Telemetry::NameThread(int pid, int tid, const std::string& name) {
  thread_names_[{pid, tid}] = name;
}

// --- Update lifecycle spans --------------------------------------------------

uint64_t Telemetry::NewUpdateSpan(uint8_t msg_type, int server_pid, SimTime now) {
  if (!config_.spans) {
    return 0;
  }
  UpdateSpan span;
  span.id = spans_.size() + 1;
  span.msg_type = msg_type;
  span.server_pid = server_pid;
  span.queued = SimStamp{now, EventLoop::current_seq()};
  spans_.push_back(span);
  Record("update.queued", now, static_cast<int64_t>(span.id), msg_type);
  return span.id;
}

UpdateSpan* Telemetry::FindSpan(uint64_t id) {
  if (id == 0 || id > spans_.size()) {
    return nullptr;
  }
  return &spans_[id - 1];
}

void Telemetry::StampPicked(uint64_t id, SimTime now) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr || span->picked.valid()) {
    return;  // a split remainder's re-pick keeps the first pick time
  }
  span->picked = SimStamp{now, EventLoop::current_seq()};
  if (config_.chrome_trace) {
    TraceEvent e;
    e.ph = 'X';
    e.name = "queue";
    e.pid = span->server_pid;
    e.tid = 2;
    e.ts = span->queued.ts;
    e.dur = std::max<SimTime>(0, now - span->queued.ts);
    e.seq = span->queued.seq;
    e.has_arg = true;
    e.arg_name = "trace_id";
    e.arg = static_cast<int64_t>(id);
    PushEvent(std::move(e));
  }
  Record("update.picked", now, static_cast<int64_t>(id), span->msg_type);
}

void Telemetry::StampEncode(uint64_t id, SimTime start, SimTime done,
                            bool cache_hit) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  span->encode_us += std::max<SimTime>(0, done - start);
  span->encode_done = SimStamp{done, EventLoop::current_seq()};
  if (cache_hit) {
    span->encode_cache_hit = true;
  }
  if (config_.chrome_trace) {
    TraceEvent e;
    e.ph = 'X';
    e.name = cache_hit ? "encode(cache hit)" : "encode";
    e.pid = span->server_pid;
    e.tid = 3;
    e.ts = start;
    e.dur = std::max<SimTime>(0, done - start);
    e.seq = EventLoop::current_seq();
    e.has_arg = true;
    e.arg_name = "trace_id";
    e.arg = static_cast<int64_t>(id);
    PushEvent(std::move(e));
  }
}

void Telemetry::StampCommit(uint64_t id, SimTime now, int64_t bytes) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  SimStamp stamp{now, EventLoop::current_seq()};
  if (!span->commit_first.valid()) {
    span->commit_first = stamp;
  }
  span->commit_last = stamp;
  span->wire_bytes += bytes;
}

void Telemetry::NoteFrameCommitted(uint64_t id, SimTime now) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  ++span->wire_frames;
  Record("update.sent", now, static_cast<int64_t>(id), span->wire_bytes);
}

void Telemetry::StampDelivered(uint64_t id, int client_pid, SimTime now) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  span->client_pid = client_pid;
  span->delivered = SimStamp{now, EventLoop::current_seq()};
}

void Telemetry::StampDecoded(uint64_t id, SimTime now) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  span->decoded = SimStamp{now, EventLoop::current_seq()};
}

void Telemetry::StampDamaged(uint64_t id, SimTime now) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  span->damaged = SimStamp{now, EventLoop::current_seq()};
  if (config_.chrome_trace) {
    // The span is final: emit its send / network / client slices. (Queue and
    // encode slices were emitted as their stages finished.)
    auto slice = [this, span](const char* name, int pid, int tid,
                              const SimStamp& from, const SimStamp& to) {
      if (!from.valid() || !to.valid()) {
        return;
      }
      TraceEvent e;
      e.ph = 'X';
      e.name = name;
      e.pid = pid;
      e.tid = tid;
      e.ts = from.ts;
      e.dur = std::max<SimTime>(0, to.ts - from.ts);
      e.seq = from.seq;
      e.has_arg = true;
      e.arg_name = "trace_id";
      e.arg = static_cast<int64_t>(span->id);
      PushEvent(std::move(e));
    };
    slice("send", span->server_pid, 4, span->commit_first, span->commit_last);
    slice("net", span->client_pid, 1, span->commit_last, span->delivered);
    slice("decode+apply", span->client_pid, 2, span->delivered, span->damaged);
  }
  Record("update.damaged", now, static_cast<int64_t>(id), span->msg_type);
}

void Telemetry::MarkEvicted(uint64_t id) {
  UpdateSpan* span = FindSpan(id);
  if (span == nullptr) {
    return;
  }
  span->evicted = true;
}

// --- Wire-trace channels -----------------------------------------------------

void Telemetry::PushWireTrace(const void* channel, uint64_t id) {
  if (!config_.spans || id == 0) {
    return;
  }
  wire_channels_[channel].push_back(id);
}

uint64_t Telemetry::PopWireTrace(const void* channel) {
  auto it = wire_channels_.find(channel);
  if (it == wire_channels_.end() || it->second.empty()) {
    return 0;
  }
  uint64_t id = it->second.front();
  it->second.pop_front();
  return id;
}

void Telemetry::DropWireChannel(const void* channel) {
  wire_channels_.erase(channel);
}

size_t Telemetry::WireChannelDepth(const void* channel) const {
  auto it = wire_channels_.find(channel);
  return it == wire_channels_.end() ? 0 : it->second.size();
}

// --- Instants ----------------------------------------------------------------

void Telemetry::PushEvent(TraceEvent e) {
  e.order = next_order_++;
  events_.push_back(std::move(e));
}

void Telemetry::Instant(int pid, int tid, const std::string& name, SimTime ts) {
  if (!config_.chrome_trace) {
    return;
  }
  TraceEvent e;
  e.ph = 'i';
  e.name = name;
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.seq = EventLoop::current_seq();
  PushEvent(std::move(e));
}

void Telemetry::InstantArg(int pid, int tid, const std::string& name, SimTime ts,
                           const std::string& arg_name, int64_t arg) {
  if (!config_.chrome_trace) {
    return;
  }
  TraceEvent e;
  e.ph = 'i';
  e.name = name;
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.seq = EventLoop::current_seq();
  e.has_arg = true;
  e.arg_name = arg_name;
  e.arg = arg;
  PushEvent(std::move(e));
}

// --- Flight recorder ---------------------------------------------------------

void Telemetry::Record(const char* name, SimTime ts, int64_t a, int64_t b) {
  if (!config_.flight_recorder || config_.flight_capacity == 0) {
    return;
  }
  FlightRecord r{ts, EventLoop::current_seq(), name, a, b};
  if (flight_.size() < config_.flight_capacity) {
    flight_.push_back(r);
  } else {
    flight_[flight_head_] = r;
  }
  flight_head_ = (flight_head_ + 1) % config_.flight_capacity;
}

std::vector<FlightRecord> Telemetry::FlightTimeline() const {
  std::vector<FlightRecord> out;
  out.reserve(flight_.size());
  if (flight_.size() < config_.flight_capacity) {
    out = flight_;  // not yet wrapped: stored oldest -> newest
    return out;
  }
  for (size_t i = 0; i < flight_.size(); ++i) {
    out.push_back(flight_[(flight_head_ + i) % flight_.size()]);
  }
  return out;
}

void Telemetry::DumpFlightRecorder(std::FILE* out, const char* reason) const {
  std::vector<FlightRecord> timeline = FlightTimeline();
  std::fprintf(out, "=== flight recorder: %s (last %zu records) ===\n", reason,
               timeline.size());
  for (const FlightRecord& r : timeline) {
    std::fprintf(out, "  [t=%10lld us seq=%8llu] %-22s a=%lld b=%lld\n",
                 static_cast<long long>(r.ts),
                 static_cast<unsigned long long>(r.seq), r.name,
                 static_cast<long long>(r.a), static_cast<long long>(r.b));
  }
  std::fprintf(out, "=== end flight recorder ===\n");
}

// --- Chrome trace export -----------------------------------------------------

std::string Telemetry::ExportChromeTrace() const {
  // Stable order: (ts, event-loop seq, insertion order). Sorting globally by
  // timestamp makes ts non-decreasing on every (pid, tid) track, whatever
  // order the stages were stamped in.
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events_.size());
  for (const TraceEvent& e : events_) {
    sorted.push_back(&e);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->ts != b->ts) {
                return a->ts < b->ts;
              }
              if (a->seq != b->seq) {
                return a->seq < b->seq;
              }
              return a->order < b->order;
            });

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&out, &first](const std::string& line) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += line;
  };

  // Metadata: process names for pid 0 (the simulation/network) and every
  // registered host, thread names for every named (pid, tid).
  {
    std::string line = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                       "\"tid\":0,\"args\":{\"name\":\"sim\"}}";
    emit(line);
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    std::string line = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                       std::to_string(i + 1) + ",\"tid\":0,\"args\":{\"name\":";
    AppendJsonString(&line, hosts_[i]);
    line += "}}";
    emit(line);
  }
  for (const auto& [key, name] : thread_names_) {
    std::string line = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
                       std::to_string(key.first) +
                       ",\"tid\":" + std::to_string(key.second) +
                       ",\"args\":{\"name\":";
    AppendJsonString(&line, name);
    line += "}}";
    emit(line);
  }

  for (const TraceEvent* e : sorted) {
    std::string line = "{\"ph\":\"";
    line.push_back(e->ph);
    line += "\",\"name\":";
    AppendJsonString(&line, e->name);
    line += ",\"pid\":" + std::to_string(e->pid) +
            ",\"tid\":" + std::to_string(e->tid) +
            ",\"ts\":" + std::to_string(e->ts);
    if (e->ph == 'X') {
      line += ",\"dur\":" + std::to_string(e->dur);
    }
    if (e->ph == 'i') {
      line += ",\"s\":\"t\"";
    }
    if (e->has_arg) {
      line += ",\"args\":{";
      AppendJsonString(&line, e->arg_name);
      line += ":" + std::to_string(e->arg) + "}";
    }
    line += "}";
    emit(line);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Telemetry::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string json = ExportChromeTrace();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

}  // namespace thinc
