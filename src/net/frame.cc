#include "frame.hh"

#include <cstring>

#include "sim/logging.hh"

namespace tengig {

namespace {

/** FNV-1a over the pattern region. */
std::uint32_t
patternHash(const std::uint8_t *data, unsigned len)
{
    std::uint32_t h = 2166136261u;
    for (unsigned i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 16777619u;
    }
    return h;
}

constexpr unsigned headerWords = 4; // seq, len, hash, pad

} // namespace

void
fillPayload(std::uint8_t *payload, unsigned len, std::uint32_t seq,
            std::uint32_t flow)
{
    panic_if(len < headerWords * 4,
             "payload too small for integrity header: ", len);
    panic_if(flow > maxFlowId, "flow id out of range: ", flow);
    unsigned pattern_len = len - headerWords * 4;
    std::uint8_t *pattern = payload + headerWords * 4;
    // Deterministic pattern derived from the flow and sequence number:
    // an LCG (a = 1664525, c = 1013904223) emitting the top byte per
    // step.
    std::uint32_t x = (seq + flow * 40503u) * 2654435761u + 12345u;
    for (unsigned i = 0; i < pattern_len; ++i) {
        x = x * 1664525u + 1013904223u;
        pattern[i] = static_cast<std::uint8_t>(x >> 24);
    }
    std::uint32_t hash = patternHash(pattern, pattern_len);
    std::uint32_t words[headerWords] = {seq, len, hash,
                                        payloadMagicBase | flow};
    std::memcpy(payload, words, sizeof(words));
}

void
fillPayload(std::uint8_t *payload, unsigned len, std::uint32_t seq)
{
    fillPayload(payload, len, seq, 0);
}

bool
checkPayload(const std::uint8_t *payload, unsigned len, std::uint32_t &seq,
             std::uint32_t &flow)
{
    if (len < headerWords * 4)
        return false;
    std::uint32_t words[headerWords];
    std::memcpy(words, payload, sizeof(words));
    seq = words[0];
    if (words[1] != len ||
        (words[3] & ~maxFlowId) != payloadMagicBase) {
        return false;
    }
    flow = words[3] & maxFlowId;
    unsigned pattern_len = len - headerWords * 4;
    return patternHash(payload + headerWords * 4, pattern_len) == words[2];
}

bool
peekPayload(const std::uint8_t *payload, unsigned len, std::uint32_t &seq,
            std::uint32_t &flow)
{
    if (len < headerWords * 4)
        return false;
    std::uint32_t words[headerWords];
    std::memcpy(words, payload, sizeof(words));
    if (words[1] != len || (words[3] & ~maxFlowId) != payloadMagicBase)
        return false;
    seq = words[0];
    flow = words[3] & maxFlowId;
    return true;
}

bool
checkPayload(const std::uint8_t *payload, unsigned len, std::uint32_t &seq)
{
    std::uint32_t flow = 0;
    return checkPayload(payload, len, seq, flow) && flow == 0;
}

void
fillFrameHeader(std::uint8_t *dst, unsigned len, std::uint32_t hdr_seed)
{
    for (unsigned i = 0; i < len; ++i)
        dst[i] = frameHeaderByte(hdr_seed, i);
}

void
materializeFrame(const FrameDesc &d, std::uint8_t *dst)
{
    fillFrameHeader(dst, txHeaderBytes, d.hdrSeed);
    fillPayload(dst + txHeaderBytes, d.payLen, d.seq, d.flow);
}

void
materializeFrameRange(const FrameDesc &d, unsigned off, unsigned len,
                      std::uint8_t *dst)
{
    panic_if(off + len > d.totalLen(),
             "frame range out of bounds: off=", off, " len=", len);
    if (!len)
        return;
    // The payload pattern is strictly sequential, so generate the whole
    // frame into a scratch buffer and copy the requested window; frames
    // are at most ~1.5 KB and partial materialization is a cold path.
    static thread_local std::vector<std::uint8_t> scratch;
    scratch.resize(d.totalLen());
    materializeFrame(d, scratch.data());
    std::memcpy(dst, scratch.data() + off, len);
}

std::uint8_t
frameDescByte(const FrameDesc &d, unsigned i)
{
    std::uint8_t b = 0;
    materializeFrameRange(d, i, 1, &b);
    return b;
}

} // namespace tengig
