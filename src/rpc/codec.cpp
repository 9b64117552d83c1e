#include "rpc/codec.hpp"

#include <cstring>
#include <limits>
#include <span>
#include <string>

namespace iofa::rpc {

namespace {

// --- primitive writers/readers -------------------------------------------
// Explicit little-endian byte packing: no struct punning, no host
// endianness assumptions. This file is the only sanctioned home of
// memcpy-on-frame-bytes in src/rpc (raw-wire rule).

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    put_u8(out, static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    put_u8(out, static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::vector<std::byte>& out, double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_bytes(std::vector<std::byte>& out, std::span<const std::byte> v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
}

void put_string(std::vector<std::byte>& out, const std::string& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (char c : v) out.push_back(static_cast<std::byte>(c));
}

/// Bounds-checked sequential reader over a body span. Every read
/// validates remaining length first, so a malformed length field can
/// never walk past the buffer.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() {
    std::uint16_t v = u8();
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(u8())
                                        << 8));
    return v;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::vector<std::byte> bytes() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::byte> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out.push_back(static_cast<char>(data_[pos_ + i]));
    }
    pos_ += n;
    return out;
  }

  /// Decoders call this last: leftover bytes are a malformation, not
  /// forward compatibility (the version field owns evolution).
  void expect_done() const {
    if (pos_ != size_) throw CodecError("trailing bytes in body");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw CodecError("body truncated");
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::uint64_t fnv1a(const std::byte* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// A frame under construction: a header placeholder the body is
/// appended after, so body bytes are written once, in place.
/// `body_hint` pre-sizes the buffer for the expected body.
std::vector<std::byte> open_frame(std::size_t body_hint = 32) {
  std::vector<std::byte> frame;
  frame.reserve(kHeaderSize + body_hint);
  frame.resize(kHeaderSize);
  return frame;
}

void store_le(std::byte* dst, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

/// Fill in the header of an open_frame() whose body is complete.
std::vector<std::byte> seal(MsgType type, std::uint64_t request_id,
                            std::vector<std::byte> frame) {
  const std::size_t body_size = frame.size() - kHeaderSize;
  std::byte* h = frame.data();
  store_le(h + 0, kWireMagic, 4);
  store_le(h + 4, kWireVersion, 1);
  store_le(h + 5, static_cast<std::uint8_t>(type), 1);
  store_le(h + 6, 0, 2);
  store_le(h + 8, request_id, 8);
  store_le(h + 16, body_size, 4);
  store_le(h + 20, 0, 4);
  std::uint64_t hash = fnv1a(h, kHeaderSize - 8);
  hash = fnv1a(h + kHeaderSize, body_size, hash);
  store_le(h + kHeaderSize - 8, hash, 8);
  return frame;
}

}  // namespace

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitRequestMsg& m) {
  std::vector<std::byte> frame =
      open_frame(64 + m.path.size() + m.payload.size());
  put_u8(frame, static_cast<std::uint8_t>(m.op));
  put_u32(frame, m.tenant);
  put_u64(frame, m.file_id);
  put_u64(frame, m.offset);
  put_u64(frame, m.size);
  put_f64(frame, m.stream_weight);
  put_u64(frame, m.deadline_us);
  put_u64(frame, m.settled_below);
  put_string(frame, m.path);
  put_bytes(frame, m.payload);
  return seal(MsgType::kSubmitRequest, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitAckMsg& m) {
  std::vector<std::byte> frame = open_frame();
  put_u8(frame, static_cast<std::uint8_t>(m.result));
  return seal(MsgType::kSubmitAck, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitResponseMsg& m) {
  return encode(request_id, m, m.data);
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const SubmitResponseMsg& m,
                              std::span<const std::byte> data) {
  std::vector<std::byte> frame = open_frame(16 + data.size());
  put_u8(frame, static_cast<std::uint8_t>(m.status));
  put_u64(frame, m.value);
  put_bytes(frame, data);
  return seal(MsgType::kSubmitResponse, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingGetMsg& m) {
  std::vector<std::byte> frame = open_frame();
  put_u64(frame, m.job);
  return seal(MsgType::kMappingGet, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingReplyMsg& m) {
  std::vector<std::byte> frame = open_frame();
  put_u64(frame, m.epoch);
  put_u8(frame, m.found ? 1 : 0);
  put_u32(frame, static_cast<std::uint32_t>(m.ions.size()));
  for (std::int32_t ion : m.ions) {
    put_u32(frame, static_cast<std::uint32_t>(ion));
  }
  return seal(MsgType::kMappingReply, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingPublishMsg& m) {
  std::vector<std::byte> frame = open_frame();
  put_string(frame, m.text);
  return seal(MsgType::kMappingPublish, request_id, std::move(frame));
}

std::vector<std::byte> encode(std::uint64_t request_id,
                              const MappingPublishAckMsg&) {
  return seal(MsgType::kMappingPublishAck, request_id, open_frame());
}

namespace {

/// Header checks shared by decode() and peek_type(). Returns the type;
/// fills request_id / body_len.
MsgType check_header(const std::vector<std::byte>& frame,
                     std::uint64_t* request_id, std::size_t* body_len) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  Reader h(frame.data(), kHeaderSize);
  if (h.u32() != kWireMagic) throw CodecError("bad magic");
  const std::uint8_t version = h.u8();
  if (version != kWireVersion) {
    throw CodecError("unsupported wire version " + std::to_string(version));
  }
  const std::uint8_t type = h.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kSubmitRequest) ||
      type > static_cast<std::uint8_t>(MsgType::kMappingPublishAck)) {
    throw CodecError("unknown message type " + std::to_string(type));
  }
  if (h.u16() != 0) throw CodecError("nonzero reserved field");
  const std::uint64_t id = h.u64();
  const std::uint32_t len = h.u32();
  if (h.u32() != 0) throw CodecError("nonzero reserved field");
  if (len > kMaxBodyLen) throw CodecError("body length over limit");
  if (frame.size() != kHeaderSize + len) {
    throw CodecError("frame length does not match body length");
  }
  const std::uint64_t want = h.u64();
  std::uint64_t got = fnv1a(frame.data(), kHeaderSize - 8);
  got = fnv1a(frame.data() + kHeaderSize, len, got);
  if (want != got) throw CodecError("checksum mismatch");
  if (request_id) *request_id = id;
  if (body_len) *body_len = len;
  return static_cast<MsgType>(type);
}

}  // namespace

MsgType peek_type(const std::vector<std::byte>& frame) {
  return check_header(frame, nullptr, nullptr);
}

Decoded decode(const std::vector<std::byte>& frame) {
  Decoded out;
  std::size_t body_len = 0;
  const MsgType type = check_header(frame, &out.request_id, &body_len);
  Reader r(frame.data() + kHeaderSize, body_len);
  switch (type) {
    case MsgType::kSubmitRequest: {
      SubmitRequestMsg m;
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(WireOp::kFsync)) {
        throw CodecError("bad op " + std::to_string(op));
      }
      m.op = static_cast<WireOp>(op);
      m.tenant = r.u32();
      m.file_id = r.u64();
      m.offset = r.u64();
      m.size = r.u64();
      m.stream_weight = r.f64();
      m.deadline_us = r.u64();
      m.settled_below = r.u64();
      m.path = r.str();
      m.payload = r.bytes();
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kSubmitAck: {
      SubmitAckMsg m;
      const std::uint8_t res = r.u8();
      if (res > static_cast<std::uint8_t>(WireSubmitResult::kDown)) {
        throw CodecError("bad submit result " + std::to_string(res));
      }
      m.result = static_cast<WireSubmitResult>(res);
      r.expect_done();
      out.msg = m;
      break;
    }
    case MsgType::kSubmitResponse: {
      SubmitResponseMsg m;
      const std::uint8_t status = r.u8();
      if (status > static_cast<std::uint8_t>(WireStatus::kError)) {
        throw CodecError("bad status " + std::to_string(status));
      }
      m.status = static_cast<WireStatus>(status);
      m.value = r.u64();
      m.data = r.bytes();
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kMappingGet: {
      MappingGetMsg m;
      m.job = r.u64();
      r.expect_done();
      out.msg = m;
      break;
    }
    case MsgType::kMappingReply: {
      MappingReplyMsg m;
      m.epoch = r.u64();
      const std::uint8_t found = r.u8();
      if (found > 1) throw CodecError("bad found flag");
      m.found = found == 1;
      const std::uint32_t n = r.u32();
      // Each ion costs 4 body bytes; an absurd count dies here instead
      // of in a giant reserve.
      if (n > kMaxBodyLen / 4) throw CodecError("ion list over limit");
      m.ions.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        m.ions.push_back(static_cast<std::int32_t>(r.u32()));
      }
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kMappingPublish: {
      MappingPublishMsg m;
      m.text = r.str();
      r.expect_done();
      out.msg = std::move(m);
      break;
    }
    case MsgType::kMappingPublishAck: {
      r.expect_done();
      out.msg = MappingPublishAckMsg{};
      break;
    }
  }
  return out;
}

}  // namespace iofa::rpc
