#include "overlay.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace tengig {

OverlayMem::Backing::Backing(std::size_t bytes)
{
    if (!bytes)
        return;
    // Private anonymous pages read as zeros and are allocated on first
    // write; MAP_NORESERVE keeps untouched capacity out of the commit
    // charge.
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    fatal_if(p == MAP_FAILED, "cannot map ", bytes,
             " bytes of overlay backing: ", std::strerror(errno));
    // Advisory: on hosts whose transparent huge pages are always on, a
    // first write would otherwise make a whole 2 MiB page resident.
    madvise(p, bytes, MADV_NOHUGEPAGE);
    base = static_cast<std::uint8_t *>(p);
    len = bytes;
}

OverlayMem::Backing::~Backing()
{
    if (base)
        munmap(base, len);
}

std::map<Addr, OverlayMem::PatSpan>::iterator
OverlayMem::lowerSpan(Addr addr)
{
    auto it = spans.upper_bound(addr);
    if (it != spans.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > addr)
            return prev;
    }
    return it;
}

std::map<Addr, OverlayMem::PatSpan>::const_iterator
OverlayMem::lowerSpan(Addr addr) const
{
    return const_cast<OverlayMem *>(this)->lowerSpan(addr);
}

OverlayMem::SpanMap::iterator
OverlayMem::eraseSpan(SpanMap::iterator it)
{
    auto next = std::next(it);
    auto nh = spans.extract(it);
    if (nodeCache.size() < 64)
        nodeCache.push_back(std::move(nh));
    return next;
}

OverlayMem::SpanMap::iterator
OverlayMem::insertSpan(Addr addr, const PatSpan &span)
{
    if (!nodeCache.empty()) {
        auto nh = std::move(nodeCache.back());
        nodeCache.pop_back();
        nh.key() = addr;
        nh.mapped() = span;
        auto res = spans.insert(std::move(nh));
        panic_if(!res.inserted, "overlay span base already occupied");
        return res.position;
    }
    return spans.emplace(addr, span).first;
}

void
OverlayMem::trimRange(Addr addr, std::size_t len)
{
    if (!len || spans.empty())
        return;
    Addr end = addr + len;
    auto it = lowerSpan(addr);
    while (it != spans.end() && it->first < end) {
        Addr s = it->first;
        PatSpan sp = it->second;
        Addr se = s + sp.len;
        it = eraseSpan(it);
        if (s < addr) {
            insertSpan(s, PatSpan{sp.desc, sp.off,
                                  static_cast<std::uint32_t>(addr - s)});
        }
        if (se > end) {
            // Key `end` >= the loop bound, so this survivor is never
            // revisited; map insertion leaves `it` valid.
            insertSpan(end,
                       PatSpan{sp.desc,
                               static_cast<std::uint32_t>(sp.off + (end - s)),
                               static_cast<std::uint32_t>(se - end)});
        }
    }
}

bool
OverlayMem::mergeWithNext(std::map<Addr, PatSpan>::iterator it)
{
    auto nx = std::next(it);
    if (nx == spans.end())
        return false;
    PatSpan &a = it->second;
    const PatSpan &b = nx->second;
    if (it->first + a.len != nx->first || b.off != a.off + a.len)
        return false;
    if (a.desc == b.desc) {
        // One frame staged in pieces: contiguous windows of the same
        // descriptor.
    } else if (a.desc.hdrSeed == b.desc.hdrSeed &&
               a.off + a.len == txHeaderBytes) {
        // `a` covers only header-filler bytes, which depend solely on
        // hdrSeed; adopt b's payload identity for the merged span.
        // This is the TSO shape: one header template span shared by
        // per-segment payload descriptors.
        a.desc = b.desc;
    } else {
        return false;
    }
    a.len += b.len;
    eraseSpan(nx);
    return true;
}

void
OverlayMem::putSpan(Addr addr, const PatSpan &span)
{
    panic_if(span.len == 0, "overlay span must be non-empty");
    panic_if(span.off + span.len > span.desc.totalLen(),
             "overlay span exceeds its frame: off=", span.off,
             " len=", span.len);
    boundsCheck(addr, span.len, "overlay span");
    trimRange(addr, span.len);
    auto it = insertSpan(addr, span);
    if (it != spans.begin()) {
        auto prev = std::prev(it);
        if (mergeWithNext(prev))
            it = prev;
    }
    mergeWithNext(it);
}

void
OverlayMem::writeBytes(Addr addr, const std::uint8_t *src,
                       std::size_t len, const char *what)
{
    boundsCheck(addr, len, what);
    trimRange(addr, len);
    std::memcpy(mem.data() + addr, src, len);
}

void
OverlayMem::readBytes(Addr addr, std::uint8_t *dst, std::size_t len,
                      const char *what) const
{
    boundsCheck(addr, len, what);
    materializeRange(addr, len);
    std::memcpy(dst, mem.data() + addr, len);
}

void
OverlayMem::materializeRange(Addr addr, std::size_t len) const
{
    if (!len || spans.empty())
        return;
    Addr end = addr + len;
    auto it = const_cast<OverlayMem *>(this)->lowerSpan(addr);
    while (it != spans.end() && it->first < end) {
        // Expand the whole span (even partially overlapped ones) so
        // the non-overlap invariant stays trivial; partial reads are a
        // cold path.
        const PatSpan &sp = it->second;
        materializeFrameRange(sp.desc, sp.off, sp.len,
                              mem.data() + it->first);
        ++materialized;
        it = const_cast<OverlayMem *>(this)->eraseSpan(it);
    }
}

void
OverlayMem::copyFrom(const OverlayMem &src, Addr src_addr, Addr dst_addr,
                     std::size_t len)
{
    src.boundsCheck(src_addr, len, "overlay copy source");
    boundsCheck(dst_addr, len, "overlay copy dest");
    panic_if(&src == this, "overlay self-copy unsupported");
    Addr pos = src_addr;
    Addr end = src_addr + len;
    auto it = src.lowerSpan(src_addr);
    while (pos < end) {
        Addr span_start = end;
        Addr span_end = end;
        const PatSpan *sp = nullptr;
        if (it != src.spans.end() && it->first < end) {
            span_start = std::max<Addr>(it->first, pos);
            span_end = std::min<Addr>(it->first + it->second.len, end);
            sp = &it->second;
        }
        if (pos < span_start) {
            // Raw stretch: move real bytes, superseding whatever the
            // destination held there.
            std::size_t n = span_start - pos;
            Addr d = dst_addr + (pos - src_addr);
            trimRange(d, n);
            std::memcpy(mem.data() + d, src.mem.data() + pos, n);
            pos = span_start;
        }
        if (sp && pos < span_end) {
            // Spanned stretch: rebase the (sub-)window to the
            // destination address, keeping the bytes virtual.
            PatSpan out;
            out.desc = sp->desc;
            out.off = sp->off +
                      static_cast<std::uint32_t>(pos - it->first);
            out.len = static_cast<std::uint32_t>(span_end - pos);
            putSpan(dst_addr + (pos - src_addr), out);
            pos = span_end;
            ++it;
        }
    }
}

std::optional<FrameDesc>
OverlayMem::viewFrame(Addr addr, std::size_t len) const
{
    auto it = spans.find(addr);
    if (it == spans.end())
        return std::nullopt;
    const PatSpan &sp = it->second;
    if (sp.off != 0 || sp.len != len || sp.desc.totalLen() != len)
        return std::nullopt;
    return sp.desc;
}

} // namespace tengig
