/* sample_prof.c: a SIGPROF frame-pointer sampler, loaded with LD_PRELOAD.
 *
 *   cc -O2 -shared -fPIC -o sample_prof.so tools/sample_prof/sample_prof.c
 *   LD_PRELOAD=./sample_prof.so ./mcps run run --scenario pca --quiet
 *   python3 tools/sample_prof/report.py sample_prof.<pid>
 *
 * Every 1 ms of CPU time the interrupted thread records its pc and the
 * return addresses along its frame-pointer chain, so the program must be
 * built with -fno-omit-frame-pointer. At exit the samples and the
 * process's memory map go to sample_prof.<pid> in the working directory.
 * x86-64 and AArch64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kWords = 1 << 20, kDepth = 64, kStackBytes = 8 << 20 };
static uintptr_t buf[kWords]; /* per sample: depth, then that many pcs */
static size_t used;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
#if defined(__x86_64__)
    uintptr_t pc = mc->gregs[REG_RIP], fp = mc->gregs[REG_RBP], sp = mc->gregs[REG_RSP];
#elif defined(__aarch64__)
    uintptr_t pc = mc->pc, fp = mc->regs[29], sp = mc->sp;
#endif
    uintptr_t pcs[kDepth];
    size_t n = 0;
    pcs[n++] = pc;
    /* Only follow frame pointers that stay inside this thread's stack. */
    while (n < kDepth && fp >= sp && fp < sp + kStackBytes && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] == 0) break;
        pcs[n++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    const size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > kWords) return; /* buffer full: drop the sample */
    buf[at] = n;
    for (size_t i = 0; i < n; ++i) buf[at + 1 + i] = pcs[i];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], line[4096];
    snprintf(path, sizeof path, "sample_prof.%d", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    const size_t end = used < kWords ? used : kWords;
    for (size_t i = 0; i < end && buf[i] && i + buf[i] < end; i += buf[i] + 1) {
        fputs("s", out);
        for (size_t k = 1; k <= buf[i]; ++k) fprintf(out, " %lx", (unsigned long)buf[i + k]);
        fputs("\n", out);
    }
    fclose(maps);
    fclose(out);
}
