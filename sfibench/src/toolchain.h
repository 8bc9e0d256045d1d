/**
 * @file
 * The toolchain phases, run on one pinned thread in short interleaved
 * blocks: (a) a seeded stream of never-seen FaaS images, each served
 * its first request cold (tiered, filling the shared code cache) and
 * then warm (from the cache); (b) the ten w2c SPEC-like kernels under
 * every policy; (c) the fourteen Sightglass-like micros JIT'd native
 * and under Segue. Every output is checked.
 */
#ifndef SFIBENCH_TOOLCHAIN_H_
#define SFIBENCH_TOOLCHAIN_H_

#include <cstdint>
#include <memory>

#include <vector>

#include "report.h"
#include "trace.h"
#include "wasm/module.h"

namespace sfibench {

/** The 14 Sightglass-like micro modules, in registry order (inputs). */
std::vector<sfi::wasm::Module> microModules();

/** Compiled micros and w2c heaps; building it is part of set-up. */
class Toolchain
{
  public:
    /**
     * Set-up: compile and instantiate @p micros (from microModules())
     * native and under Segue, and build the w2c heaps.
     */
    static std::unique_ptr<Toolchain> create(
        std::vector<sfi::wasm::Module> micros);
    ~Toolchain();

    /**
     * Warm-up and reference outputs (oracle work, not set-up): one
     * untimed call of every micro and kernel.
     */
    void prepare(Report& report);

    /**
     * Serves @p images images in interleaved rounds with the kernel
     * and micro repetitions, which then go on until @p seconds have
     * passed. With @p tracer, spans every image's stages and adds the
     * per-layer metrics; otherwise adds the end-to-end ones.
     */
    void run(uint64_t seed, double seconds, uint64_t images, Tracer* tracer,
             Report& report);

  private:
    struct Impl;
    explicit Toolchain(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
};

}  // namespace sfibench

#endif  // SFIBENCH_TOOLCHAIN_H_
