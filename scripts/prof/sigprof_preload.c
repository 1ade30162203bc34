/*
 * A sampling profiler in one LD_PRELOAD object (Linux / x86-64 only).
 *
 * Constructor: install a SIGPROF handler and start ITIMER_PROF at 1 ms of
 * process CPU time (the kernel delivers at its own tick, 250 Hz on most
 * builds). Handler: record the interrupted RIP and walk the frame-pointer
 * chain from the interrupted RBP into a preallocated array — no allocation,
 * no locks, nothing async-signal-unsafe. Destructor: write the executable
 * mappings of /proc/self/maps followed by one line of hex return addresses
 * per sample to $SIGPROF_OUT (default ./sigprof.out).
 *
 * The target must be built with frame pointers (-C force-frame-pointers=yes)
 * for callers to resolve; frames inside libraries built without them
 * (libc's memcpy, malloc) end the walk early or resolve to the nearest
 * exported symbol. scripts/profile.sh drives this; scripts/prof/report.py
 * reads the output. Main thread only: the stack bounds used to validate
 * frame pointers are those of the thread that ran the constructor.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES 200000
#define MAX_DEPTH 48

static uintptr_t frames[MAX_SAMPLES][MAX_DEPTH];
static uint8_t depth[MAX_SAMPLES];
static volatile uint32_t n_samples;
static uint32_t n_dropped;
static uintptr_t stack_lo, stack_hi;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    uint32_t i = n_samples;
    if (i >= MAX_SAMPLES) {
        n_dropped++;
        return;
    }
    ucontext_t *uc = (ucontext_t *)ctx;
    uintptr_t rip = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t rbp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t rsp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uint8_t d = 0;
    frames[i][d++] = rip;
    /* A frame pointer is followed only while it points into the live part
     * of this thread's stack, is aligned, and moves towards the stack base. */
    uintptr_t floor = rsp > stack_lo ? rsp : stack_lo;
    while (d < MAX_DEPTH && rbp >= floor && rbp + 16 <= stack_hi && (rbp & 7) == 0) {
        uintptr_t next = ((uintptr_t *)rbp)[0];
        uintptr_t ret = ((uintptr_t *)rbp)[1];
        if (ret < 4096) break;
        frames[i][d++] = ret;
        if (next <= rbp) break;
        rbp = next;
    }
    depth[i] = d;
    n_samples = i + 1;
}

static void find_stack(void) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    uintptr_t here = (uintptr_t)&line;
    while (maps && fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (sscanf(line, "%lx-%lx", &lo, &hi) == 2 && here >= lo && here < hi) {
            stack_lo = lo;
            stack_hi = hi;
        }
    }
    if (maps) fclose(maps);
}

__attribute__((constructor)) static void sigprof_start(void) {
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    if (!out) return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) {
        /* "lo-hi perms offset dev inode path": file-backed mappings only. */
        if (strchr(line, '/')) fprintf(out, "map %s", line);
    }
    if (maps) fclose(maps);
    fprintf(out, "dropped %u\n", n_dropped);
    for (uint32_t i = 0; i < n_samples; i++) {
        fputs("s", out);
        for (uint8_t d = 0; d < depth[i]; d++) fprintf(out, " %lx", (unsigned long)frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
