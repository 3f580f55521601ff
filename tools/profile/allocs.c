/* Allocation tracer for a process that cannot be rebuilt or run under perf.
 *
 * Built as a shared object and LD_PRELOADed by tools/profile.sh --allocs.
 * It interposes malloc, calloc and realloc (what Rust's System allocator
 * calls for every allocation aligned to at most 16 bytes, zeroed or grown;
 * posix_memalign, for larger alignments, is not traced) and records, per
 * call, the function called and the backtrace() frames above it, in the
 * raw format of tools/profile/sampler.c: one `sample` line per allocation,
 * then the process's /proc/self/maps at exit. tools/profile/symbolise.py
 * reads it unchanged; its inclusive by-symbol table then counts
 * allocations by call site, and its by-phase table says how many fell in
 * the timed run.
 *
 * The real allocator is glibc's __libc_malloc & co., so nothing here needs
 * dlsym. Records are streamed to $CMAP_PROFILE_OUT through a static buffer
 * with write(2), so the trace has no size cap. An allocation made while one
 * is being recorded on the same thread (backtrace() loading its unwinder)
 * or after the exit handler started passes through unrecorded.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#define MAX_DEPTH 64

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

static int fd = -1;
static volatile int stopped;
static int lock;
static __thread int busy __attribute__((tls_model("initial-exec")));

/* Text of the records not yet written; a record is at most MAX_DEPTH + 1
 * words of 17 characters plus its keyword. */
static char buf[1 << 20];
static size_t fill;

static void flush(void) {
    for (size_t done = 0; done < fill;) {
        ssize_t n = write(fd, buf + done, fill - done);
        if (n <= 0)
            break;
        done += (size_t)n;
    }
    fill = 0;
}

static void put_hex(uintptr_t v) {
    char tmp[16];
    int n = 0;
    do {
        tmp[n++] = "0123456789abcdef"[v & 15];
        v >>= 4;
    } while (v);
    buf[fill++] = ' ';
    while (n)
        buf[fill++] = tmp[--n];
}

/* One record: `fn` (the interposed function, the sample's leaf) and the
 * return addresses above the call, starting at `ret`, this wrapper's. */
static void record(void *fn, void *ret) {
    if (fd < 0 || stopped || busy)
        return;
    busy = 1;
    void *frames[MAX_DEPTH];
    int n = backtrace(frames, MAX_DEPTH), first = 0;
    while (first < n && frames[first] != ret)
        first++;
    if (first == n)
        first = n = 0;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    if (fill + (MAX_DEPTH + 2) * 17 + 8 > sizeof buf)
        flush();
    memcpy(buf + fill, "sample", 6);
    fill += 6;
    put_hex((uintptr_t)fn);
    for (int i = first; i < n; i++)
        put_hex((uintptr_t)frames[i]);
    buf[fill++] = '\n';
    __atomic_clear(&lock, __ATOMIC_RELEASE);
    busy = 0;
}

void *malloc(size_t size) {
    record((void *)malloc, __builtin_return_address(0));
    return __libc_malloc(size);
}

void *calloc(size_t count, size_t size) {
    record((void *)calloc, __builtin_return_address(0));
    return __libc_calloc(count, size);
}

void *realloc(void *ptr, size_t size) {
    record((void *)realloc, __builtin_return_address(0));
    return __libc_realloc(ptr, size);
}

static void dump(void) {
    busy = 1;
    stopped = 1;
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
    flush();
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) {
        size_t len = strlen(line);
        if (fill + len + 8 > sizeof buf)
            flush();
        memcpy(buf + fill, "map ", 4);
        memcpy(buf + fill + 4, line, len);
        fill += 4 + len;
    }
    if (maps)
        fclose(maps);
    memcpy(buf + fill, "dropped 0\n", 10);
    fill += 10;
    flush();
    close(fd);
    fd = -1;
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

__attribute__((constructor)) static void arm(void) {
    const char *path = getenv("CMAP_PROFILE_OUT");
    if (!path)
        return;
    busy = 1;
    /* backtrace() loads libgcc's unwinder on first use, allocating. */
    void *warm[4];
    backtrace(warm, 4);
    fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    atexit(dump);
    busy = 0;
}
