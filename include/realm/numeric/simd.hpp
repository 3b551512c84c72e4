// Function multi-versioning for the evaluation-engine hot loops.
//
// The batch kernels and block reductions are written as branchless
// fixed-lane loops that GCC can auto-vectorize — but the project targets
// generic x86-64, whose baseline ISA (SSE2) lacks 64-bit lane multiplies,
// lzcnt and gathers.  REALM_MULTIVERSION compiles the annotated function
// once per listed target and dispatches by CPUID at load time (GNU ifunc),
// so a generic binary still runs the AVX2/AVX-512 code on machines that
// have it.  On toolchains without target_clones support the macro is empty
// and the default code path is used everywhere.
//
// Note on reproducibility: results are bit-identical across thread counts
// and across runs on the same machine/build by construction (fixed lane
// structure, fixed merge order).  As with any floating-point code, different
// ISAs/compilers may contract expressions differently, so cross-machine
// agreement is statistical, not bitwise.

#pragma once

// ThreadSanitizer builds get no clones: the ifunc resolver runs during
// relocation, before the TSan runtime is initialized, and the instrumented
// resolver segfaults at load — every binary linking a multiversioned kernel
// would crash before main().
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define REALM_MULTIVERSION \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define REALM_MULTIVERSION
#endif
