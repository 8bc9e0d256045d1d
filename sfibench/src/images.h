/**
 * @file
 * Seeded inputs of the benchmark: the stream of never-seen FaaS images
 * for the toolchain phases, and lookup of the registry's edge handlers.
 * The program under test only ever sees the generated modules.
 */
#ifndef SFIBENCH_IMAGES_H_
#define SFIBENCH_IMAGES_H_

#include <cstdint>
#include <vector>

#include "wasm/module.h"

namespace sfibench {

/** Shape of one generated FaaS image. */
struct ImageSpec
{
    uint32_t handlers = 48;
    /** Handler indices the exported `run` calls (the request path). */
    std::vector<uint32_t> hot;
    /** Per-handler loop trip multiplier and mixing constants. */
    std::vector<uint32_t> trips;
    std::vector<uint64_t> salts;
    /** Handlers with a linear-memory store/load pair in the loop. */
    std::vector<bool> touchesMemory;
};

/**
 * Images per stratum: image i has 24..72 handlers and 2..6 hot ones as
 * set by i % kImageStrata, so every run of kImageStrata consecutive
 * images has the same mix of shapes and block statistics compare.
 */
inline constexpr uint64_t kImageStrata = 25;

/**
 * Spec of image @p index in the stream of @p seed: shape from the
 * stratum position, and per-handler constants, trip counts, memory
 * traffic and the hot set drawn from the seed, so no two images share
 * code.
 */
ImageSpec imageSpec(uint64_t seed, uint64_t index);

/** Builds the module: handlers h<i>(i32)->i64, export run(i32)->i64. */
sfi::wasm::Module buildImage(const ImageSpec& spec);

/** Registry FaaS handler module by name (panics when unknown). */
sfi::wasm::Module edgeHandler(const char* name);

}  // namespace sfibench

#endif  // SFIBENCH_IMAGES_H_
