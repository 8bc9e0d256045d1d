/**
 * @file
 * The environment stamp recorded with every benchmark result: what the
 * host offers (CPUs, protection keys, FSGSBASE, perf events, clock) and
 * what the measured program actually uses of it.
 */
#ifndef SFIBENCH_ENV_H_
#define SFIBENCH_ENV_H_

#include "perflab/json.h"

namespace sfibench {

/** Probes the host once; cheap enough to run on every invocation. */
sfi::perflab::Json environmentStamp();

}  // namespace sfibench

#endif  // SFIBENCH_ENV_H_
