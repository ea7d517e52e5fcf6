#!/usr/bin/env bash
# End-to-end smoke test of the command-line tools, wired into ctest.
# Exercises the full hmmbuild -> hmmstat -> hmmemit -> hmmsearch ->
# hmmalign round trip through real files.
set -euo pipefail

BIN_DIR=${1:?usage: smoke_tools.sh <examples-bin-dir>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== hmmbuild_tool =="
"$BIN_DIR/hmmbuild_tool" --demo "$WORK/model.hmm"
grep -q "STATS LOCAL MSV" "$WORK/model.hmm"

echo "== hmmstat_tool =="
"$BIN_DIR/hmmstat_tool" "$WORK/model.hmm" | grep -q "match states"

echo "== hmmemit_tool =="
"$BIN_DIR/hmmemit_tool" "$WORK/model.hmm" 8 "$WORK/homologs.fasta"
grep -c '^>' "$WORK/homologs.fasta" | grep -qx 8

echo "== hmmsearch_tool (CPU) =="
"$BIN_DIR/hmmsearch_tool" "$WORK/model.hmm" "$WORK/homologs.fasta" \
  > "$WORK/cpu.out"
grep -q "hits 8" "$WORK/cpu.out" || {
  echo "expected all 8 emitted homologs to hit"; cat "$WORK/cpu.out"; exit 1;
}

echo "== hmmsearch_tool (GPU engine) =="
"$BIN_DIR/hmmsearch_tool" --gpu "$WORK/model.hmm" "$WORK/homologs.fasta" \
  > "$WORK/gpu.out"
# Identical hit counts from both engines.
cpu_hits=$(grep -o "hits [0-9]*" "$WORK/cpu.out")
gpu_hits=$(grep -o "hits [0-9]*" "$WORK/gpu.out")
[ "$cpu_hits" = "$gpu_hits" ]

echo "== hmmsearch_tool --ali =="
"$BIN_DIR/hmmsearch_tool" --ali "$WORK/model.hmm" "$WORK/homologs.fasta" \
  | grep -q "model"

echo "== hmmalign_tool =="
"$BIN_DIR/hmmalign_tool" "$WORK/model.hmm" "$WORK/homologs.fasta" \
  "$WORK/aligned.afa"
grep -c '^>' "$WORK/aligned.afa" | grep -qx 8

echo "== hmmpress_tool / hmmscan_tool =="
"$BIN_DIR/hmmpress_tool" "$WORK/lib.fhpdb" "$WORK/model.hmm"
"$BIN_DIR/hmmscan_tool" "$WORK/lib.fhpdb" "$WORK/homologs.fasta" \
  > "$WORK/scan.out"
# Every emitted homolog should be annotated with the pressed model.
[ "$(grep -c demo_motif "$WORK/scan.out")" -ge 8 ] || {
  echo "hmmscan failed to annotate homologs"; cat "$WORK/scan.out"; exit 1;
}

echo "== seqconvert_tool round trip =="
"$BIN_DIR/seqconvert_tool" "$WORK/homologs.fasta" "$WORK/homologs.fsqdb"
"$BIN_DIR/seqconvert_tool" "$WORK/homologs.fsqdb" "$WORK/back.fasta"
cmp -s <(grep -v '^>' "$WORK/homologs.fasta" | tr -d '\n') \
       <(grep -v '^>' "$WORK/back.fasta" | tr -d '\n')
# hmmsearch straight from the packed database.
"$BIN_DIR/hmmsearch_tool" "$WORK/model.hmm" "$WORK/homologs.fsqdb" \
  | grep -q "hits 8"

echo "== hmmsim_tool (Gumbel hypothesis must not be rejected) =="
"$BIN_DIR/hmmsim_tool" "$WORK/model.hmm" 300 > /dev/null

echo "== tblout / domains =="
"$BIN_DIR/hmmsearch_tool" --domains --tblout "$WORK/hits.tbl" \
  "$WORK/model.hmm" "$WORK/homologs.fasta" > /dev/null
[ "$(grep -cv '^#' "$WORK/hits.tbl")" -eq 8 ]

echo "== engine parity: serial vs threaded (real binaries) =="
# --threads n and --overlapped select the threaded scan core; its hits,
# domains, alignments and target table must match the serial engine's
# byte for byte.  Comment lines carry the output paths, so skip them.
"$BIN_DIR/hmmemit_tool" "$WORK/model.hmm" 64 "$WORK/many.fasta"
for mode in serial threads overlapped; do
  case $mode in
    serial) flags=() ;;
    threads) flags=(--threads 3) ;;
    overlapped) flags=(--overlapped --threads 3) ;;
  esac
  "$BIN_DIR/hmmsearch_tool" "${flags[@]}" --domains --ali \
    --tblout "$WORK/$mode.tbl" "$WORK/model.hmm" "$WORK/many.fasta" \
    | grep -v '^#' > "$WORK/$mode.report"
done
for mode in threads overlapped; do
  cmp "$WORK/serial.report" "$WORK/$mode.report"
  cmp "$WORK/serial.tbl" "$WORK/$mode.tbl"
done
# A library of three copies of the model forms one fused group; the
# fused scan must annotate exactly like one model at a time.
"$BIN_DIR/hmmpress_tool" "$WORK/lib3.fhpdb" "$WORK/model.hmm" \
  "$WORK/model.hmm" "$WORK/model.hmm" > /dev/null
"$BIN_DIR/hmmscan_tool" "$WORK/lib3.fhpdb" "$WORK/many.fasta" \
  > "$WORK/fused.scan"
grep -q "in 1 groups" "$WORK/fused.scan"
"$BIN_DIR/hmmscan_tool" --sequential "$WORK/lib3.fhpdb" "$WORK/many.fasta" \
  > "$WORK/sequential.scan"
cmp <(grep -v '^#' "$WORK/fused.scan") <(grep -v '^#' "$WORK/sequential.scan")

echo "== SIMD tier parity: --demo identical on every tier =="
# Hits are bit-identical on every SIMD tier, so each forced tier's demo
# report (MSV -> Viterbi -> Forward through pipeline::BatchScanner) must
# match the default tier's byte for byte.  A tier the host cannot run
# clamps to one it can, so this runs on any host.
env -u FINEHMM_SIMD "$BIN_DIR/hmmsearch_tool" --demo > "$WORK/demo.default"
for tier in portable sse2 avx2 avx512; do
  FINEHMM_SIMD=$tier "$BIN_DIR/hmmsearch_tool" --demo > "$WORK/demo.$tier"
  cmp "$WORK/demo.default" "$WORK/demo.$tier"
done

echo "== quickstart / pfam_scan / gpu_speedup_demo =="
"$BIN_DIR/quickstart" > /dev/null
"$BIN_DIR/pfam_scan" 3 120 > /dev/null
"$BIN_DIR/gpu_speedup_demo" 100 > /dev/null

echo "== exit-code contract: 2 = bad arguments, 3 = I/O failure =="
# The tools share examples/tool_exit.hpp: argument mistakes and I/O
# failures must be distinguishable to scripts without parsing stderr.
expect_rc() {
  local want=$1; shift
  local rc=0
  "$@" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || {
    echo "FAIL: '$*' exited $rc, want $want"; exit 1; }
}
expect_rc 2 "$BIN_DIR/hmmsearch_tool"                       # no arguments
expect_rc 2 "$BIN_DIR/hmmsearch_tool" --no-such-flag x y    # unknown flag
expect_rc 2 "$BIN_DIR/hmmbuild_tool"                        # no arguments
expect_rc 2 "$BIN_DIR/hmmemit_tool"                         # no arguments
expect_rc 2 "$BIN_DIR/hmmscan_tool" --bogus a b             # unknown flag
expect_rc 3 "$BIN_DIR/hmmsearch_tool" "$WORK/absent.hmm" \
  "$WORK/homologs.fasta"                                    # missing model
expect_rc 3 "$BIN_DIR/hmmsearch_tool" "$WORK/model.hmm" \
  "$WORK/absent.fasta"                                      # missing database
expect_rc 3 "$BIN_DIR/hmmstat_tool" "$WORK/absent.hmm"      # missing model
expect_rc 3 "$BIN_DIR/hmmalign_tool" "$WORK/model.hmm" \
  "$WORK/absent.fasta" "$WORK/out.afa"                      # missing input
expect_rc 3 "$BIN_DIR/seqconvert_tool" "$WORK/absent.fasta" \
  "$WORK/out.fsqdb"                                         # missing input

echo "ALL TOOL SMOKE TESTS PASSED"
