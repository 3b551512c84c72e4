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
// The clones are per kernel instance.  The datapath families' kernels have
// a 32-bit-lane instance for operands of up to 16 bits (16 pairs per
// 512-bit vector) and a 64-bit-lane one above (src/multipliers/datapath.hpp),
// and AM has the same split; each instance gets its own three clones.
//
// A clone's ISA does not decide whether a table lookup becomes a gather:
// GCC's generic tuning lowers one to vpextrq/vpinsrq sequences even in the
// x86-64-v4 clone, and a read of 32-bit entries to vpextrd/vpinsrd.  The one
// kernel with a table read in its batch loop, REALM's s_ij lookup, keeps
// 64-bit entries in both instances and is built with GCC's gather tuning
// re-enabled for its source file alone (src/CMakeLists.txt), which gives
// both its x86-64-v4 clones vpgatherqq; no code here selects it.
//
// Note on reproducibility: results are bit-identical across thread counts
// and across runs on the same machine/build by construction (fixed lane
// structure, fixed merge order).  As with any floating-point code, different
// ISAs/compilers may contract expressions differently, so cross-machine
// agreement is statistical, not bitwise.
//
// One loop has a variant of its own for the x86-64-v4 ISA.  The exhaustive
// engine's reduction (src/error/eval_engine.cpp) divides each pair's error
// by its exact product, and on a row tile the divider bounds it: one vdivpd
// per eight pairs.  For row tiles whose products are integers below 2^52
// (operands of at most 26 bits) a separate target("arch=x86-64-v4")
// function takes every other vector's quotient from a reciprocal and one
// Markstein FMA correction instead (src/error/row_quotient.hpp), which
// equals IEEE division bit for bit under exactly those preconditions.  The
// FMAs are intrinsics, never left to -ffp-contract.  It runs when the CPU
// supports x86-64-v4; other CPUs, wider operands and builds without clones
// keep the general reduction loop, which divides.

#pragma once

// ThreadSanitizer builds get no clones: the ifunc resolver runs during
// relocation, before the TSan runtime is initialized, and the instrumented
// resolver segfaults at load — every binary linking a multiversioned kernel
// would crash before main().
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
// Set when the clones exist, so code with an x86-64-v4-only variant can
// compile it.
#define REALM_HAVE_X86_64_V4_CLONE 1
#define REALM_MULTIVERSION \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define REALM_MULTIVERSION
#endif
