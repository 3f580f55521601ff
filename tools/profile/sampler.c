/* SIGPROF sampler for a process that cannot be rebuilt or run under perf.
 *
 * Built as a shared object and LD_PRELOADed by tools/profile.sh. The
 * constructor arms ITIMER_PROF (CPU time of the process, 1 ms); every
 * tick the handler stores the interrupted PC — or, with
 * CMAP_PROFILE_STACKS=1, the backtrace() frames above it — in a static
 * array; at exit the process's /proc/self/maps and the samples are
 * written to $CMAP_PROFILE_OUT for tools/profile/symbolise.py.
 *
 * Nothing here allocates or locks inside the handler. backtrace() loads
 * libgcc's unwinder on first use, so the constructor calls it once
 * before the timer starts.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (8u << 20) /* 64 MiB of BSS; only touched pages are resident */
#define MAX_DEPTH 64

/* Records of [depth, pc0 (leaf), pc1, ...]. */
static uintptr_t words[MAX_WORDS];
static volatile size_t used;
static volatile size_t dropped;
static int stacks;

static uintptr_t interrupted_pc(void *ctx) {
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler.c: add the PC register of this architecture"
#endif
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    uintptr_t pc = interrupted_pc(ctx);
    void *frames[MAX_DEPTH];
    int n = 0, first = 0;
    if (stacks) {
        n = backtrace(frames, MAX_DEPTH);
        /* Drop the handler's own frames and the signal trampoline: the
         * interrupted function is the frame holding `pc`. */
        while (first < n && (uintptr_t)frames[first] != pc)
            first++;
        if (first == n) {
            n = 0;
        }
    }
    size_t depth = n ? (size_t)(n - first) : 1;
    if (used + 1 + depth > MAX_WORDS) {
        dropped++;
        return;
    }
    words[used++] = depth;
    if (n) {
        for (int i = first; i < n; i++)
            words[used++] = (uintptr_t)frames[i];
    } else {
        words[used++] = pc;
    }
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("CMAP_PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    if (maps)
        fclose(maps);
    fprintf(out, "dropped %zu\n", (size_t)dropped);
    for (size_t i = 0; i < used;) {
        size_t depth = words[i++];
        fputs("sample", out);
        for (size_t k = 0; k < depth; k++)
            fprintf(out, " %lx", (unsigned long)words[i++]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void arm(void) {
    const char *s = getenv("CMAP_PROFILE_STACKS");
    stacks = s && s[0] == '1';
    if (stacks) {
        void *warm[4];
        backtrace(warm, 4);
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
