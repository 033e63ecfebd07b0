#include "obs/span_export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace cmvrp {
namespace {

// Local little-endian codecs: obs sits below trace/, so the spool keeps
// its own copies instead of including trace/format.h.
void store_le32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void store_le64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void store_le16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

std::uint16_t load_le16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

void encode_span_event(const SpanEvent& e, unsigned char* out) {
  store_le64(out, static_cast<std::uint64_t>(e.clock));
  store_le64(out + 8, e.comp);
  store_le64(out + 16, e.data);
  store_le32(out + 24, e.actor);
  store_le32(out + 28, e.parent);
  store_le16(out + 32, e.hop);
  out[34] = e.kind;
  out[35] = e.aux;
}

SpanEvent decode_span_event(const unsigned char* p) {
  SpanEvent e;
  e.clock = static_cast<std::int64_t>(load_le64(p));
  e.comp = load_le64(p + 8);
  e.data = load_le64(p + 16);
  e.actor = load_le32(p + 24);
  e.parent = load_le32(p + 28);
  e.hop = load_le16(p + 32);
  e.kind = p[34];
  e.aux = p[35];
  return e;
}

// --- Chrome trace-event JSON -----------------------------------------------

std::int64_t signed_actor(std::uint32_t actor) {
  return actor == SpanEvent::kNoActor ? -1
                                      : static_cast<std::int64_t>(actor);
}

std::uint64_t tid_of(const SpanRecorder& rec, std::uint32_t actor) {
  if (actor == SpanEvent::kNoActor) return 0;
  const std::uint32_t pair = rec.pair_of(actor);
  return pair == SpanRecorder::kNoActor ? 0 : pair + 1;
}

void event_args(std::string* line, const SpanEvent& e) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"args\":{\"comp\":%" PRIu64 ",\"actor\":%" PRId64
                ",\"parent\":%" PRId64 ",\"hop\":%u,\"aux\":%u,\"data\":%" PRIu64
                "}",
                e.comp, signed_actor(e.actor), signed_actor(e.parent),
                static_cast<unsigned>(e.hop), static_cast<unsigned>(e.aux),
                e.data);
  line->append(buf);
}

void event_common(std::string* line, const char* ph, const char* cat,
                  const char* name, std::uint64_t pid, std::uint64_t tid,
                  std::int64_t ts) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"%s\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":%" PRIu64
                ",\"tid\":%" PRIu64 ",\"ts\":%" PRId64 ",",
                ph, cat, name, pid, tid, ts);
  line->append(buf);
}

void append_id(std::string* line, std::uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"id\":%" PRIu64 ",", id);
  line->append(buf);
}

void write_chrome_event(std::ostream& out, const CubeSpanSource& src,
                        const SpanEvent& e) {
  const SpanRecorder& rec = *src.recorder;
  std::string line;
  line.reserve(256);
  const auto kind = static_cast<SpanKind>(e.kind);
  switch (kind) {
    case SpanKind::kCompStart:
    case SpanKind::kCompFinish:
      // One async "comp" lane per diffusing computation, id = the packed
      // InitTag (unique per cube; scoped by pid via the cat+id2 rules a
      // viewer applies to async events with explicit pid).
      event_common(&line, kind == SpanKind::kCompStart ? "b" : "e", "comp",
                   "phase1", src.pid, tid_of(rec, e.actor), e.clock);
      append_id(&line, e.comp);
      break;
    case SpanKind::kSend:
    case SpanKind::kDeliver: {
      // Flow arrow from the send to its delivery. The recorder's flow
      // ordinal (e.data) is per-cube; fold the pid in so arrows never
      // alias across cubes.
      const std::uint64_t flow = (src.pid << 32) | e.data;
      event_common(&line, kind == SpanKind::kSend ? "s" : "f", "msg",
                   span_message_kind_name(e.aux), src.pid,
                   tid_of(rec, e.actor), e.clock);
      if (kind == SpanKind::kDeliver) line.append("\"bp\":\"e\",");
      append_id(&line, flow);
      break;
    }
    case SpanKind::kRelay:
      event_common(&line, "i", "comp", "relay", src.pid,
                   tid_of(rec, e.actor), e.clock);
      line.append("\"s\":\"t\",");
      break;
    case SpanKind::kCascadeStep:
      event_common(&line, "i", "cascade", "replacement", src.pid,
                   tid_of(rec, e.actor), e.clock);
      line.append("\"s\":\"t\",");
      break;
    case SpanKind::kServeBegin:
    case SpanKind::kServeEnd:
      // Serve anchors pair as a duration slice on tid 0 regardless of
      // which vehicle served (serve_end records no actor; a mismatched
      // tid would break the B/E pairing). The vehicle is in args.
      event_common(&line, kind == SpanKind::kServeBegin ? "B" : "E", "serve",
                   "serve", src.pid, 0, e.clock);
      break;
  }
  event_args(&line, e);
  line.append("},\n");
  out << line;
}

void write_metadata_name(std::ostream& out, std::uint64_t pid,
                         std::int64_t tid, const char* key,
                         const std::string& name) {
  out << "{\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) out << ",\"tid\":" << tid;
  out << ",\"name\":\"" << key << "\",\"args\":{\"name\":\"" << name
      << "\"}},\n";
}

}  // namespace

void export_chrome_trace(std::ostream& out, int dim,
                         const std::vector<CubeSpanSource>& sources,
                         double wall_ms) {
  out << "[\n";
  // The one wall-clock byte sequence, first so a grep over Tier-B keys
  // (obs/compare.h wall rule) skips it and leaves the rest of the
  // file byte-diffable across runs.
  {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"name\":\"wall_ms\",\"args\":{"
                  "\"wall_ms\":%.3f}},\n",
                  wall_ms);
    out << buf;
  }
  SpanTotals totals;
  std::uint64_t events = 0;
  for (const CubeSpanSource& src : sources) {
    CMVRP_CHECK_MSG(src.recorder != nullptr,
                    "chrome export: cube span source without a recorder");
    const SpanRecorder& rec = *src.recorder;
    totals.merge(rec.totals());
    write_metadata_name(out, src.pid, -1, "process_name",
                        "cube " + src.corner.to_string());
    write_metadata_name(out, src.pid, 0, "thread_name", "anchors");
    // One named lane per vehicle pair this cube ever registered.
    std::uint32_t max_pair = 0;
    bool any_pair = false;
    for (std::size_t vid = 0; vid < rec.vehicle_count(); ++vid) {
      const std::uint32_t pair =
          rec.pair_of(static_cast<std::uint32_t>(vid));
      if (pair == SpanRecorder::kNoActor) continue;
      any_pair = true;
      if (pair > max_pair) max_pair = pair;
    }
    if (any_pair) {
      for (std::uint32_t pair = 0; pair <= max_pair; ++pair) {
        char name[32];
        std::snprintf(name, sizeof(name), "pair %u", pair);
        write_metadata_name(out, src.pid,
                            static_cast<std::int64_t>(pair) + 1,
                            "thread_name", name);
      }
    }
    for (const SpanEvent& e : rec.snapshot()) {
      write_chrome_event(out, src, e);
      ++events;
    }
  }
  // Deterministic trailer (comma-free, so the array closes clean).
  out << "{\"ph\":\"M\",\"pid\":0,\"name\":\"cmvrp_span_totals\",\"args\":{"
      << "\"dim\":" << dim << ",\"cubes\":" << sources.size()
      << ",\"events\":" << events << ",\"emitted\":" << totals.emitted
      << ",\"sampled_out\":" << totals.sampled_out
      << ",\"ring_evicted\":" << totals.ring_evicted << "}}\n]\n";
  CMVRP_CHECK_MSG(out.good(), "chrome trace export failed (disk full?)");
}

void write_span_spool(std::ostream& out, int dim,
                      const std::vector<CubeSpanSource>& sources) {
  CMVRP_CHECK_MSG(dim >= 1 && dim <= Point::kMaxDim,
                  "span spool dim must be in [1, " << Point::kMaxDim
                                                   << "], got " << dim);
  SpanTotals totals;
  for (const CubeSpanSource& src : sources) {
    CMVRP_CHECK_MSG(src.recorder != nullptr,
                    "span spool: cube span source without a recorder");
    totals.merge(src.recorder->totals());
  }
  unsigned char header[kSpanSpoolHeaderSize];
  for (std::size_t i = 0; i < sizeof(kSpanSpoolMagic); ++i)
    header[i] = kSpanSpoolMagic[i];
  store_le32(header + 8, kSpanSpoolVersion);
  store_le32(header + 12, static_cast<std::uint32_t>(dim));
  store_le64(header + 16, sources.size());
  store_le64(header + 24, totals.emitted);
  store_le64(header + 32, totals.sampled_out);
  store_le64(header + 40, totals.ring_evicted);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  for (const CubeSpanSource& src : sources) {
    const SpanRecorder& rec = *src.recorder;
    unsigned char buf[64];
    for (int i = 0; i < dim; ++i) {
      store_le64(buf, static_cast<std::uint64_t>(src.corner[i]));
      out.write(reinterpret_cast<const char*>(buf), 8);
    }
    store_le64(buf, src.pid);
    store_le64(buf + 8, rec.totals().emitted);
    store_le64(buf + 16, rec.totals().sampled_out);
    store_le64(buf + 24, rec.totals().ring_evicted);
    store_le64(buf + 32, rec.vehicle_count());
    out.write(reinterpret_cast<const char*>(buf), 40);
    for (std::size_t vid = 0; vid < rec.vehicle_count(); ++vid) {
      store_le32(buf, rec.pair_of(static_cast<std::uint32_t>(vid)));
      out.write(reinterpret_cast<const char*>(buf), 4);
    }
    const std::vector<SpanEvent> events = rec.snapshot();
    store_le64(buf, events.size());
    out.write(reinterpret_cast<const char*>(buf), 8);
    for (const SpanEvent& e : events) {
      unsigned char record[kSpanRecordSize];
      encode_span_event(e, record);
      out.write(reinterpret_cast<const char*>(record), sizeof(record));
    }
  }
  CMVRP_CHECK_MSG(out.good(), "span spool write failed (disk full?)");
}

SpanSpool read_span_spool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CMVRP_CHECK_MSG(in.good(), "cannot open span spool: " << path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t size = bytes.size();

  // Bounded cursor: every read states where it is, so truncation errors
  // name the exact byte offset (same contract as trace/reader.cpp).
  std::size_t at = 0;
  const auto need = [&](std::size_t n, const char* what) {
    CMVRP_CHECK_MSG(at + n <= size, "span spool truncated at byte "
                                        << at << " (need " << n
                                        << " bytes for " << what << ", file is "
                                        << size << " bytes): " << path);
  };

  need(kSpanSpoolHeaderSize, "header");
  for (std::size_t i = 0; i < sizeof(kSpanSpoolMagic); ++i)
    CMVRP_CHECK_MSG(data[i] == kSpanSpoolMagic[i],
                    "bad span spool magic at byte " << i << ": " << path);
  const std::uint32_t version = load_le32(data + 8);
  CMVRP_CHECK_MSG(version == kSpanSpoolVersion,
                  "unsupported span spool version "
                      << version << " at byte 8 (expected "
                      << kSpanSpoolVersion << "): " << path);
  const std::uint32_t dim = load_le32(data + 12);
  CMVRP_CHECK_MSG(dim >= 1 && dim <= static_cast<std::uint32_t>(Point::kMaxDim),
                  "bad span spool dim " << dim << " at byte 12: " << path);
  const std::uint64_t cube_count = load_le64(data + 16);
  SpanSpool spool;
  spool.dim = static_cast<int>(dim);
  spool.totals.emitted = load_le64(data + 24);
  spool.totals.sampled_out = load_le64(data + 32);
  spool.totals.ring_evicted = load_le64(data + 40);
  at = kSpanSpoolHeaderSize;

  spool.cubes.reserve(cube_count);
  for (std::uint64_t c = 0; c < cube_count; ++c) {
    CubeSpans cube;
    need(static_cast<std::size_t>(dim) * 8 + 40, "cube block header");
    Point corner = Point::origin(static_cast<int>(dim));
    for (std::uint32_t i = 0; i < dim; ++i) {
      corner[static_cast<int>(i)] =
          static_cast<std::int64_t>(load_le64(data + at));
      at += 8;
    }
    cube.corner = corner;
    cube.pid = load_le64(data + at);
    cube.totals.emitted = load_le64(data + at + 8);
    cube.totals.sampled_out = load_le64(data + at + 16);
    cube.totals.ring_evicted = load_le64(data + at + 24);
    const std::uint64_t vehicles = load_le64(data + at + 32);
    at += 40;
    need(vehicles * 4, "pair registry");
    cube.pair_of.reserve(vehicles);
    for (std::uint64_t v = 0; v < vehicles; ++v) {
      cube.pair_of.push_back(load_le32(data + at));
      at += 4;
    }
    need(8, "event count");
    const std::uint64_t events = load_le64(data + at);
    at += 8;
    need(events * kSpanRecordSize, "event records");
    cube.events.reserve(events);
    for (std::uint64_t e = 0; e < events; ++e) {
      const SpanEvent ev = decode_span_event(data + at);
      CMVRP_CHECK_MSG(ev.kind < kSpanKindCount,
                      "unknown span kind " << static_cast<unsigned>(ev.kind)
                                           << " at byte " << at << ": "
                                           << path);
      cube.events.push_back(ev);
      at += kSpanRecordSize;
    }
    spool.cubes.push_back(std::move(cube));
  }
  CMVRP_CHECK_MSG(at == size, "span spool has " << size - at
                                                << " trailing bytes at byte "
                                                << at << ": " << path);
  return spool;
}

SpanSpool read_chrome_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CMVRP_CHECK_MSG(in.good(), "cannot open span trace: " << path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const check_error& e) {
    CMVRP_CHECK_MSG(false, "span trace does not parse (" << e.what()
                                                         << "): " << path);
  }
  CMVRP_CHECK_MSG(doc.is_array(),
                  "span trace is not a JSON event array: " << path);

  const auto u64 = [](const Json& j) {
    return static_cast<std::uint64_t>(j.as_number());
  };
  const auto actor32 = [](const Json& j) {
    const auto v = static_cast<std::int64_t>(j.as_number());
    return v < 0 ? SpanEvent::kNoActor : static_cast<std::uint32_t>(v);
  };

  SpanSpool spool;
  bool have_trailer = false;
  std::map<std::uint64_t, CubeSpans> by_pid;  // ordered -> deterministic
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const Json& ev = doc.at(i);
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") {  // metadata: naming, wall_ms, or the totals trailer
      if (ev.at("name").as_string() == "cmvrp_span_totals") {
        const Json& a = ev.at("args");
        spool.dim = static_cast<int>(a.at("dim").as_number());
        spool.totals.emitted = u64(a.at("emitted"));
        spool.totals.sampled_out = u64(a.at("sampled_out"));
        spool.totals.ring_evicted = u64(a.at("ring_evicted"));
        have_trailer = true;
      }
      continue;
    }
    SpanKind kind;
    if (ph == "b") {
      kind = SpanKind::kCompStart;
    } else if (ph == "e") {
      kind = SpanKind::kCompFinish;
    } else if (ph == "s") {
      kind = SpanKind::kSend;
    } else if (ph == "f") {
      kind = SpanKind::kDeliver;
    } else if (ph == "i") {
      kind = ev.at("cat").as_string() == "cascade" ? SpanKind::kCascadeStep
                                                   : SpanKind::kRelay;
    } else if (ph == "B") {
      kind = SpanKind::kServeBegin;
    } else if (ph == "E") {
      kind = SpanKind::kServeEnd;
    } else {
      CMVRP_CHECK_MSG(false, "span trace event " << i
                                                 << " has unexpected phase \""
                                                 << ph << "\": " << path);
    }
    const Json& a = ev.at("args");
    SpanEvent e;
    e.kind = static_cast<std::uint8_t>(kind);
    e.clock = static_cast<std::int64_t>(ev.at("ts").as_number());
    e.comp = u64(a.at("comp"));
    e.data = u64(a.at("data"));
    e.actor = actor32(a.at("actor"));
    e.parent = actor32(a.at("parent"));
    e.hop = static_cast<std::uint16_t>(u64(a.at("hop")));
    e.aux = static_cast<std::uint8_t>(u64(a.at("aux")));
    const std::uint64_t pid = u64(ev.at("pid"));
    CubeSpans& cube = by_pid[pid];
    cube.pid = pid;
    cube.events.push_back(e);
  }
  CMVRP_CHECK_MSG(have_trailer,
                  "span trace has no cmvrp_span_totals trailer (truncated, or "
                  "not a cmvrp export): "
                      << path);
  spool.cubes.reserve(by_pid.size());
  for (auto& [pid, cube] : by_pid) spool.cubes.push_back(std::move(cube));
  return spool;
}

}  // namespace cmvrp
