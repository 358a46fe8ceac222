#include "sweep/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string_view>
#include <thread>

#include "core/thread_annotations.h"
#include "stats/numfmt.h"

namespace aitax::sweep {

int
effectiveJobs(int requested)
{
    if (requested >= 1)
        return requested;
    if (const char *env = std::getenv("AITAX_JOBS"); env && *env) {
        int n = 0;
        if (!stats::parseWhole(env, n)) {
            std::fprintf(stderr,
                         "aitax: AITAX_JOBS needs a whole number, got "
                         "'%s'\n",
                         env);
            std::exit(2);
        }
        if (n >= 1)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

int
consumeJobsFlag(int &argc, char **argv)
{
    int requested = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) != "--jobs")
            continue;
        if (i + 1 >= argc || !stats::parseWhole(argv[i + 1], requested)) {
            std::fprintf(stderr, "%s: --jobs needs a whole number\n",
                         argv[0]);
            std::exit(2);
        }
        for (int j = i; j + 2 <= argc; ++j) // keeps argv[argc] null
            argv[j] = argv[j + 2];
        argc -= 2;
        break;
    }
    return effectiveJobs(requested);
}

SweepRunner::SweepRunner(int jobs) : jobs_(effectiveJobs(jobs)) {}

namespace {

/** First exception thrown by any worker; later ones are dropped. */
struct ErrorSlot
{
    core::Mutex m;
    std::exception_ptr first AITAX_GUARDED_BY(m);
};

} // namespace

void
SweepRunner::forEach(std::size_t count,
                     const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    const auto workers = static_cast<std::size_t>(jobs_);
    if (workers <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // One shared cursor: each worker claims the next unclaimed index,
    // so an idle worker always takes whatever work is left.
    std::atomic<std::size_t> next{0};
    ErrorSlot error;

    auto worker = [&] {
        for (std::size_t index = next.fetch_add(1); index < count;
             index = next.fetch_add(1)) {
            try {
                fn(index);
            } catch (...) {
                const core::MutexLock lock(error.m);
                if (!error.first)
                    error.first = std::current_exception();
                next.store(count); // stop handing out indices
                return;
            }
        }
    };

    const std::size_t n_workers = std::min(workers, count);
    std::vector<std::thread> threads;
    threads.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();

    // Workers are joined, but take the lock anyway so the access is
    // provably clean under -Wthread-safety.
    const core::MutexLock lock(error.m);
    if (error.first)
        std::rethrow_exception(error.first);
}

} // namespace aitax::sweep
