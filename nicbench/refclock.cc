#include "refclock.hh"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

namespace nicbench {

namespace {

/// Pending timestamps in the kernel's event heap.
constexpr unsigned heapSize = 4096;
/// Words of state each event updates at random: 4 MiB, past the L2.
constexpr std::size_t stateWords = std::size_t{1} << 19;

std::uint64_t
mix(std::uint64_t &seed)
{
    std::uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// One state table per burst thread, allocated and touched before the
/// first timed burst so that no burst pays page faults.
std::vector<std::vector<std::uint64_t>> tables;

/// Keeps the kernel's result live.
volatile std::uint64_t sink;

void
burst(std::vector<std::uint64_t> &state)
{
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::uint64_t seed = 1, now = 0;
    for (unsigned i = 0; i < heapSize; ++i)
        heap.push(mix(seed) & 0xffff);
    for (unsigned i = 0; i < refOpsPerBurst; ++i) {
        now = heap.top();
        heap.pop();
        std::uint64_t r = mix(seed);
        state[r & (stateWords - 1)] += now;
        heap.push(now + (r >> 48));
    }
    sink = now;
}

} // namespace

double
refBurstSeconds(unsigned threads)
{
    while (tables.size() < threads)
        tables.emplace_back(stateWords, 1);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> helpers;
    for (unsigned i = 1; i < threads; ++i)
        helpers.emplace_back(burst, std::ref(tables[i]));
    burst(tables[0]);
    for (std::thread &t : helpers)
        t.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace nicbench
