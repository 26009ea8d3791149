// Telemetry: virtual-time-native observability for the simulation.
//
// Three opt-in facilities behind one TelemetryConfig. Outside every
// TelemetryScope all three are off: a disabled facility costs one branch per
// call site and never touches wire bytes or virtual time — enabling
// telemetry can never change results.
//
//   * Lifecycle spans — every display update headed for the wire gets a
//     trace id at driver interception / scheduler insert and carries it
//     through scheduler pick, encode (cache hit/miss), frame commit, link
//     delivery, client decode, and screen damage; each stage records a
//     virtual-time stamp plus the event-loop sequence number, so experiments
//     can emit per-update latency breakdowns (queue/encode/send/net/decode).
//   * Chrome trace export — spans and instants retained as trace_event
//     records and exported as Chrome/Perfetto-loadable JSON: one pid per
//     simulated host, one tid per subsystem.
//   * Flight recorder — a bounded ring of recent records that connection
//     resets, fault-plan events, and THINC_CHECK failures dump
//     automatically, turning robustness-scenario debugging into a readable
//     timeline.
//
// A TelemetryScope turns telemetry on for one run: while it lives,
// Telemetry::Get() is the scope's own instance, holding that run's spans,
// events, flight ring, wire channels, and host and thread registrations, so
// a trace describes its own run and numbers its hosts from pid 1 however
// many runs came before it in the process.
//
// Trace ids travel server->client OUT OF BAND through a per-connection FIFO
// (PushWireTrace/PopWireTrace keyed by the Connection pointer): the
// transport is reliable and in order and the server commits one frame at a
// time, so the n-th display-command frame the client decodes is the n-th
// one the server committed. The wire format itself is never touched.
#ifndef THINC_SRC_TELEMETRY_TELEMETRY_H_
#define THINC_SRC_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/event_loop.h"

namespace thinc {

struct TelemetryConfig {
  bool spans = false;            // per-update lifecycle spans
  bool chrome_trace = false;     // retain events for ExportChromeTrace()
  bool flight_recorder = false;  // bounded ring + auto-dump on faults/CHECKs
  size_t flight_capacity = 256;
};

// A virtual-time stamp plus the event-loop fired-event sequence at which it
// was taken; the sequence orders same-timestamp stamps deterministically.
struct SimStamp {
  SimTime ts = 0;
  uint64_t seq = 0;
  bool valid() const { return seq != 0; }
};

// Per-update lifecycle record. Stamps are monotone along the pipeline;
// a split update (one command delivered as several wire frames) keeps one
// span: first-wins for queued/picked, last-wins for commit/delivery/damage,
// encode time accumulates.
struct UpdateSpan {
  uint64_t id = 0;
  uint8_t msg_type = 0;
  int server_pid = 0;
  int client_pid = 0;
  int64_t wire_bytes = 0;   // committed to the socket for this update
  int64_t wire_frames = 0;  // frames (1 unless split)
  SimTime encode_us = 0;    // total encode CPU time (0 on a full cache hit)
  bool encode_cache_hit = false;
  bool evicted = false;  // overwritten in the client buffer before sending
  SimStamp queued;        // inserted into the update scheduler
  SimStamp picked;        // popped by the flush loop
  SimStamp encode_done;   // encode CPU charge complete
  SimStamp commit_first;  // first byte accepted by the socket
  SimStamp commit_last;   // last byte accepted by the socket
  SimStamp delivered;     // last wire frame arrived at the client
  SimStamp decoded;       // client decode charge complete
  SimStamp damaged;       // applied to the client framebuffer
  bool completed() const { return damaged.valid(); }
};

// One Chrome trace_event record (ph X or i).
struct TraceEvent {
  char ph = 'i';
  std::string name;
  int pid = 0;
  int tid = 0;
  SimTime ts = 0;
  SimTime dur = 0;  // 'X' only
  uint64_t seq = 0;
  uint64_t order = 0;  // insertion order; final tie-break for stable sort
  bool has_arg = false;
  std::string arg_name;
  int64_t arg = 0;
};

struct FlightRecord {
  SimTime ts = 0;
  uint64_t seq = 0;
  const char* name = "";  // must be a string literal
  int64_t a = 0;
  int64_t b = 0;
};

class Telemetry {
 public:
  // The live TelemetryScope's instance, or an all-off one outside every
  // scope.
  static Telemetry& Get();

  bool spans_on() const { return config_.spans; }
  bool trace_on() const { return config_.chrome_trace; }
  bool recorder_on() const { return config_.flight_recorder; }
  bool active() const {
    return config_.spans || config_.chrome_trace || config_.flight_recorder;
  }

  // --- Hosts (one Chrome pid per simulated host) ---------------------------
  // pid 0 is reserved for the simulation/network itself. Registers a host
  // with a unique generated name ("<prefix>#<n>"), so components built
  // several times per run (servers, clients) get a pid each.
  int RegisterHostAuto(const std::string& prefix);
  void NameThread(int pid, int tid, const std::string& name);

  // --- Update lifecycle spans ----------------------------------------------
  // All stamping is a no-op (returning id 0) unless config().spans.
  uint64_t NewUpdateSpan(uint8_t msg_type, int server_pid, SimTime now);
  UpdateSpan* FindSpan(uint64_t id);
  const std::vector<UpdateSpan>& spans() const { return spans_; }

  void StampPicked(uint64_t id, SimTime now);
  void StampEncode(uint64_t id, SimTime start, SimTime done, bool cache_hit);
  void StampCommit(uint64_t id, SimTime now, int64_t bytes);
  // The frame's last byte was accepted; the update is (or a fragment of it
  // is) on the wire.
  void NoteFrameCommitted(uint64_t id, SimTime now);
  void StampDelivered(uint64_t id, int client_pid, SimTime now);
  void StampDecoded(uint64_t id, SimTime now);
  void StampDamaged(uint64_t id, SimTime now);
  void MarkEvicted(uint64_t id);

  // --- Wire-trace channel (server commit order -> client decode order) -----
  void PushWireTrace(const void* channel, uint64_t id);
  uint64_t PopWireTrace(const void* channel);  // 0 when empty/untracked
  void DropWireChannel(const void* channel);
  size_t WireChannelDepth(const void* channel) const;

  // --- Instants (chrome_trace) ---------------------------------------------
  void Instant(int pid, int tid, const std::string& name, SimTime ts);
  void InstantArg(int pid, int tid, const std::string& name, SimTime ts,
                  const std::string& arg_name, int64_t arg);
  const std::vector<TraceEvent>& events() const { return events_; }

  // --- Flight recorder ------------------------------------------------------
  // `name` must be a string literal (the ring stores the pointer).
  void Record(const char* name, SimTime ts, int64_t a = 0, int64_t b = 0);
  // Oldest -> newest.
  std::vector<FlightRecord> FlightTimeline() const;
  void DumpFlightRecorder(std::FILE* out, const char* reason) const;

  // --- Chrome trace export --------------------------------------------------
  std::string ExportChromeTrace() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class TelemetryScope;
  explicit Telemetry(const TelemetryConfig& config);

  void PushEvent(TraceEvent e);

  TelemetryConfig config_;
  std::vector<UpdateSpan> spans_;  // spans_[id - 1]
  std::vector<TraceEvent> events_;
  uint64_t next_order_ = 0;

  std::vector<std::string> hosts_;  // pid = index + 1
  std::map<std::pair<int, int>, std::string> thread_names_;
  // Padding, not state. The all-off instance is heap-allocated at the first
  // Get(), and 48 bytes smaller it no longer held the heap top above the
  // first paper cell's 3 MB surfaces: glibc then trimmed and re-faulted
  // them on every perfbench web_paper set-up pass (4,192 pages, setup_s
  // +68%). See ROADMAP item 2's measurement hazards.
  char heap_layout_pad_[48] = {};

  std::map<const void*, std::deque<uint64_t>> wire_channels_;

  std::vector<FlightRecord> flight_;  // ring; flight_head_ is the next slot
  size_t flight_head_ = 0;
};

// Telemetry for one run, the only way to turn it on. Construction gives
// Telemetry::Get() a fresh instance with `config` and, when the flight
// recorder is on, makes THINC_CHECK failures dump it; destruction restores
// the all-off instance and the previous failure hook. Construct it before
// the run's hosts, which register their trace pids as they are built, and
// read what the run recorded before it ends. Scopes do not nest.
class TelemetryScope {
 public:
  explicit TelemetryScope(const TelemetryConfig& config);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  Telemetry telemetry_;
  void (*previous_hook_)(const char* file, int line, const char* cond);
};

}  // namespace thinc

#endif  // THINC_SRC_TELEMETRY_TELEMETRY_H_
