/**
 * @file
 * google-benchmark microbenchmarks for the crypto substrate (host
 * throughput of the functional engines; simulated latency is a
 * timing-model parameter, not measured here).
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/aes_impl.hh"
#include "crypto/ctr_pad.hh"
#include "crypto/siphash.hh"

using namespace dolos::crypto;

namespace
{

AesKey
benchKey()
{
    AesKey key{};
    for (int i = 0; i < 16; ++i)
        key[i] = std::uint8_t(i);
    return key;
}

/** One block through Aes128, i.e. the kernel this CPU selects. */
void
BM_AesEncryptBlock(benchmark::State &state)
{
    Aes128 aes(benchKey());
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock);

/** One block through the portable T-table kernel, on any CPU. */
void
BM_AesEncryptBlockPortable(benchmark::State &state)
{
    const Aes128::RoundKeys rk = detail::expandKey(benchKey());
    AesBlock block{};
    for (auto _ : state) {
        detail::encryptBlocksPortable(rk.data(), block.data(),
                                      block.data(), 1);
        benchmark::DoNotOptimize(block.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlockPortable);

/** A 64 B data pad (4 AES blocks), as the Ma-SU generates it. */
void
BM_CtrPad64B(benchmark::State &state)
{
    CtrPadGenerator gen(AesKey{{1, 2, 3}});
    std::array<std::uint8_t, 64> pad{};
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        gen.generate({1, 2, ++ctr}, pad);
        benchmark::DoNotOptimize(pad.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_CtrPad64B);

/** An 80 B Mi-SU slot pad (5 AES blocks: data + address). */
void
BM_MisuPad80B(benchmark::State &state)
{
    CtrPadGenerator gen(AesKey{{4, 5, 6}});
    std::array<std::uint8_t, 80> pad{};
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        gen.generate({0xFFFF, 3, ++ctr}, pad);
        benchmark::DoNotOptimize(pad.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 80);
}
BENCHMARK(BM_MisuPad80B);

void
BM_SipHashMac(benchmark::State &state)
{
    const SipHashMac eng({1, 2, 3, 4});
    std::vector<std::uint8_t> block(64, 0x5A);
    for (auto _ : state) {
        auto tag = eng.compute(block.data(), block.size());
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_SipHashMac);

/** The data MAC's shape: 8 B address + 8 B counter + 64 B block. */
void
BM_DataMacParts(benchmark::State &state)
{
    const SipHashMac eng({1, 2, 3, 4});
    std::vector<std::uint8_t> block(64, 0x5A);
    std::uint64_t addr = 0x1000, counter = 0;
    for (auto _ : state) {
        ++counter;
        auto tag = eng.computeParts({{&addr, sizeof(addr)},
                                     {&counter, sizeof(counter)},
                                     {block.data(), block.size()}});
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 80);
}
BENCHMARK(BM_DataMacParts);

} // namespace

BENCHMARK_MAIN();
