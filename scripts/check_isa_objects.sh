#!/usr/bin/env bash
# Guard the ISA translation units of the SIMD backend.
#
# backend_avx2.cpp and backend_avx512.cpp are the only files compiled with
# -mavx2 / -mavx512f -mavx512bw.  Any weak (COMDAT) symbol they define can
# be merged by the linker with a same-named copy from a baseline TU, and
# the AVX copy may win: the portable or SSE2 path would then SIGILL on an
# older CPU.  So every weak symbol in those objects must be keyed on the
# TU's own lane classes (kernels instantiated with them, their
# make_tier_row row).  The objects must also hold no fused multiply-add:
# contraction would make the AVX-512 Forward round differently from the
# same kernel at the same width elsewhere (docs/simd_dispatch.md §5).
#
# Usage: scripts/check_isa_objects.sh [BUILD_DIR]   (default: build)
# Needs nm and objdump (binutils).  Exits non-zero if any check fails.
set -euo pipefail

build_dir=${1:-build}
status=0

check() {
  local tu=$1 classes=$2 ok=1
  local obj
  obj=$(find "$build_dir" -name "$tu.cpp.o" -print -quit)
  if [[ -z "$obj" ]]; then
    echo "check_isa_objects: $tu.cpp.o not found under $build_dir" >&2
    status=1
    return
  fi
  local stray
  stray=$(nm -C "$obj" | awk '$2 ~ /^[WVu]$/' | grep -Ev "$classes" || true)
  if [[ -n "$stray" ]]; then
    echo "check_isa_objects: $obj defines weak symbols not keyed on" \
         "its lane classes ($classes):" >&2
    echo "$stray" >&2
    ok=0
  fi
  local fma
  fma=$(objdump -d "$obj" | grep -cE '\svfn?m(add|sub)' || true)
  if [[ "$fma" != 0 ]]; then
    echo "check_isa_objects: $obj contains $fma fused multiply-add" \
         "instructions (build with -ffp-contract=off)" >&2
    ok=0
  fi
  if [[ $ok == 1 ]]; then
    echo "check_isa_objects: $tu ok"
  else
    status=1
  fi
}

check backend_avx2 'AvxU8x32|AvxI16x16|AvxF32x8'
check backend_avx512 'Avx512U8x64|Avx512I16x32|Avx512F32x16'
exit $status
