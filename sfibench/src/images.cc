#include "images.h"

#include <string>

#include "base/logging.h"
#include "base/rng.h"
#include "wasm/builder.h"
#include "wkld/emit_util.h"
#include "wkld/workloads.h"

namespace sfibench {

using sfi::wasm::ValType;

ImageSpec
imageSpec(uint64_t seed, uint64_t index)
{
    sfi::Rng rng(seed * 0x9E3779B97F4A7C15ull + index * 0xD1B54A32D192ED03ull +
                 1);
    ImageSpec s;
    const uint64_t pos = index % kImageStrata;
    s.handlers = uint32_t(24 + pos * 48 / (kImageStrata - 1));
    const uint32_t hot = uint32_t(2 + pos % 5);
    std::vector<bool> taken(s.handlers, false);
    while (s.hot.size() < hot) {
        uint32_t h = uint32_t(rng.below(s.handlers));
        if (!taken[h]) {
            taken[h] = true;
            s.hot.push_back(h);
        }
    }
    for (uint32_t h = 0; h < s.handlers; h++) {
        s.trips.push_back(uint32_t(rng.range(16, 96)));
        s.salts.push_back(rng.next());
        s.touchesMemory.push_back(rng.below(4) != 0);
    }
    return s;
}

sfi::wasm::Module
buildImage(const ImageSpec& spec)
{
    sfi::wasm::ModuleBuilder mb;
    mb.memory(1, 1);
    std::vector<uint32_t> funcs;
    for (uint32_t h = 0; h < spec.handlers; h++) {
        const uint64_t salt = spec.salts[h];
        auto f = mb.func("h" + std::to_string(h), {ValType::I32},
                         {ValType::I64});
        uint32_t acc = f.local(ValType::I64);
        uint32_t i = f.local(ValType::I32);
        uint32_t end = f.local(ValType::I32);
        f.i64Const(salt).localSet(acc);
        f.localGet(f.param(0))
            .i32Const(spec.trips[h])
            .i32Mul()
            .localSet(end);
        sfi::wkld::forLoop(f, i, end, [&] {
            f.localGet(acc)
                .localGet(i)
                .i64ExtendI32U()
                .i64Const(salt * 0x2545F4914F6CDD1Dull + 0xC0FFEE)
                .i64Add()
                .i64Xor()
                .i64Const(salt % 61 + 1)
                .i64Rotl()
                .i64Const(0x5851F42D4C957F2Dull)
                .i64Mul()
                .localSet(acc);
            if (spec.touchesMemory[h]) {
                f.localGet(i).i32Const(7).i32Mul().i32Const(1016).i32And();
                f.localGet(acc).i64Store(4096);
                f.localGet(acc)
                    .localGet(i)
                    .i32Const(1016)
                    .i32And()
                    .i64Load(4096)
                    .i64Add()
                    .localSet(acc);
            }
        });
        f.localGet(acc).end();
        funcs.push_back(f.index());
    }
    auto run = mb.func("run", {ValType::I32}, {ValType::I64});
    uint32_t r = run.local(ValType::I64);
    run.i64Const(0).localSet(r);
    for (uint32_t h : spec.hot) {
        run.localGet(r)
            .localGet(run.param(0))
            .call(funcs[h])
            .i64Xor()
            .localSet(r);
    }
    run.localGet(r).end();
    mb.exportFunc("run", run.index());
    return std::move(mb).build();
}

sfi::wasm::Module
edgeHandler(const char* name)
{
    for (const sfi::wkld::Workload& w : sfi::wkld::faasWorkloads()) {
        if (std::string(w.name) == name)
            return w.make();
    }
    SFI_PANIC("unknown FaaS handler '%s'", name);
}

}  // namespace sfibench
