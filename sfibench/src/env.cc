#include "env.h"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "mpk/mpk.h"
#include "seg/seg.h"

namespace sfibench {

using sfi::perflab::Json;

namespace {

std::string
firstLine(const char* path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** True when /proc/cpuinfo's first "flags" line lists @p flag. */
bool
cpuinfoFlag(const std::string& flags, const char* flag)
{
    std::istringstream ss(flags);
    std::string tok;
    while (ss >> tok) {
        if (tok == flag)
            return true;
    }
    return false;
}

std::string
cpuinfoFlags()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("flags", 0) == 0)
            return line.substr(line.find(':') + 1);
    }
    return "";
}

/** Opens and closes one perf counter of @p type on this thread. */
std::string
perfEventProbe(uint32_t type, uint64_t config)
{
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.type = type;
    attr.size = sizeof attr;
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0)
        return std::string("unavailable: ") + std::strerror(errno);
    close(int(fd));
    return "available";
}

/** Allocates and frees one protection key through the raw syscalls. */
bool
pkeyAllocWorks()
{
#if defined(SYS_pkey_alloc) && defined(SYS_pkey_free)
    long k = syscall(SYS_pkey_alloc, 0, 0);
    if (k < 0)
        return false;
    syscall(SYS_pkey_free, k);
    return true;
#else
    return false;
#endif
}

}  // namespace

Json
environmentStamp()
{
    Json env = Json::object();
    env.set("nproc", Json::number(double(sysconf(_SC_NPROCESSORS_ONLN))));
    struct utsname u;
    if (uname(&u) == 0)
        env.set("kernel", Json::string(std::string(u.sysname) + " " +
                                       u.release + " " + u.machine));
    env.set("clocksource",
            Json::string(firstLine("/sys/devices/system/clocksource/"
                                   "clocksource0/current_clocksource")));
    const std::string flags = cpuinfoFlags();
    Json cpu = Json::object();
    for (const char* f : {"pku", "ospke", "fsgsbase"})
        cpu.set(f, Json::boolean(cpuinfoFlag(flags, f)));
    env.set("cpuinfo_flags", std::move(cpu));
    env.set("fsgsbase_usable", Json::boolean(sfi::seg::fsgsbaseUsable()));
    env.set("perf_event_software",
            Json::string(perfEventProbe(PERF_TYPE_SOFTWARE,
                                        PERF_COUNT_SW_TASK_CLOCK)));
    env.set("perf_event_hardware",
            Json::string(perfEventProbe(PERF_TYPE_HARDWARE,
                                        PERF_COUNT_HW_INSTRUCTIONS)));
    env.set("pkey_alloc_works", Json::boolean(pkeyAllocWorks()));
    env.set("mpk_hardware_available",
            Json::boolean(sfi::mpk::hardwareAvailable()));
    // FaasHost::create builds its pool on mpk::makeEmulated() whatever
    // the CPU offers, so every edge number prices emulated PKRU writes.
    env.set("faas_host_mpk", Json::string("emulated (FaasHost::create "
                                          "always uses mpk::makeEmulated)"));
    return env;
}

}  // namespace sfibench
