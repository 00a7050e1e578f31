#!/usr/bin/env bash
# One-command verification gate (referenced from CLAUDE.md):
#
#   scripts/check.sh            # configure + build (zero warnings), full
#                               # ctest, TSan obs+chaos+elastic+ckpt+queue+
#                               # split+fleet+runtime, ASan chaos+ckpt+queue+
#                               # split+fleet+runtime,
#                               # perf smoke, runtime throughput floor +
#                               # batch equivalence, obs v2 byte-identity,
#                               # elasticity + checkpoint + split + fleet
#                               # ablation self-checks, single-tenant
#                               # byte-identity
#
# Exits nonzero on the first failure.  Build trees: build/ (release-ish,
# whatever CMakeLists defaults to), build-tsan/ (-DLAR_SANITIZE=thread) and
# build-asan/ (-DLAR_SANITIZE=address, which expands to ASan+UBSan).
set -euo pipefail
cd "$(dirname "$0")/.."

log() { printf '\n== %s ==\n' "$*"; }

log "configure + build (zero warnings expected)"
cmake -B build -G Ninja >/dev/null
build_log=$(cmake --build build 2>&1) || { printf '%s\n' "$build_log"; exit 1; }
if printf '%s\n' "$build_log" | grep -E 'warning|Warning' >&2; then
  echo "FAIL: build produced warnings" >&2
  exit 1
fi

log "full test suite"
ctest --test-dir build -j "$(nproc)" --output-on-failure

log "split label (degree selection, split routing, exactly-once merge)"
ctest --test-dir build -L split --output-on-failure

log "ThreadSanitizer: obs + chaos + elastic + ckpt + queue + split + fleet + runtime (registry, wave, injector, scale, recovery, lane, replica, staggered-wave, flush-count races)"
cmake -B build-tsan -G Ninja -DLAR_SANITIZE=thread >/dev/null
cmake --build build-tsan >/dev/null
ctest --test-dir build-tsan -L 'obs|chaos|elastic|ckpt|queue|split|fleet|runtime' --output-on-failure

log "AddressSanitizer+UBSan: chaos + ckpt + queue + split + fleet + runtime (crash recovery frees/respawns state under load; delay stashes hold and free data suffixes; lane slot reuse; boxed control messages; replica partials; tenant slices)"
cmake -B build-asan -G Ninja -DLAR_SANITIZE=address >/dev/null
cmake --build build-asan >/dev/null
ctest --test-dir build-asan -L 'chaos|ckpt|queue|split|fleet|runtime' --output-on-failure

log "perf smoke (seed-table vs Router table, flat-map and channel hand-off differential checks)"
./build/bench/micro_hotpath --ops 20000 >/dev/null

log "runtime throughput floor + lane_batch degenerate-batch equivalence"
# micro_engine replays the same stream with lane_batch 1 and fails on any
# per-key count divergence — the batched hand-off must be semantics-free.
# (fig13 cannot host that check: it is simulator-only and never touches the
# runtime's lanes, so the batch-equivalence gate lives here.)  The floor is
# deliberately loose — an order of magnitude under a healthy run — so it
# catches a structurally broken fast path, not machine noise.
./build/bench/micro_engine --tuples 200000 --min-tps 100000 >/dev/null

log "obs v2 byte-identity (fig13 with spans+timeline+probe attached, twice same-seed)"
obs_a=$(mktemp -d); obs_b=$(mktemp -d)
(cd "$obs_a" && "$OLDPWD"/build/bench/fig13_reconfig_timeline >/dev/null)
(cd "$obs_b" && "$OLDPWD"/build/bench/fig13_reconfig_timeline >/dev/null)
diff "$obs_a"/BENCH_fig13_reconfig_timeline.json \
     "$obs_b"/BENCH_fig13_reconfig_timeline.json
diff "$obs_a"/TIMELINE_fig13_reconfig_timeline.json \
     "$obs_b"/TIMELINE_fig13_reconfig_timeline.json
rm -rf "$obs_a" "$obs_b"

log "elasticity ablation (self-checking: byte-identity, conservation, locality)"
elastic_dir=$(mktemp -d)
(cd "$elastic_dir" && "$OLDPWD"/build/bench/ablate_elastic >/dev/null)
rm -rf "$elastic_dir"

log "checkpoint + durability ablation (twice: BENCH json AND durable store files byte-identical across processes)"
# ablate_ckpt already self-checks within one process (reports + store dirs
# per cell); running the whole bench twice and diffing the working trees —
# epoch-*.base / epoch-*.delta files included — pins the durable format's
# cross-process same-seed byte-identity.
ckpt_a=$(mktemp -d); ckpt_b=$(mktemp -d)
(cd "$ckpt_a" && "$OLDPWD"/build/bench/ablate_ckpt >/dev/null)
(cd "$ckpt_b" && "$OLDPWD"/build/bench/ablate_ckpt >/dev/null)
diff -r "$ckpt_a" "$ckpt_b"
rm -rf "$ckpt_a" "$ckpt_b"

log "split ablation (self-checking: byte-identity, balance held, tail locality within 5%)"
split_dir=$(mktemp -d)
(cd "$split_dir" && "$OLDPWD"/build/bench/ablate_split >/dev/null)
rm -rf "$split_dir"

log "fleet ablation (self-checking: byte-identity, conservation, joint beats independent on shared-server imbalance)"
fleet_dir=$(mktemp -d)
(cd "$fleet_dir" && "$OLDPWD"/build/bench/ablate_fleet >/dev/null)
rm -rf "$fleet_dir"

log "single-tenant full-suite byte-identity (every fig bench, twice, stdout + artifacts)"
# lar::fleet (like chaos/ckpt/elastic/split before it) must be a structural
# no-op when no FleetManager is attached: every paper-figure bench runs the
# single-tenant path end to end, so any byte-level shift — stdout tables or
# emitted BENCH_/TIMELINE_ artifacts — across two same-build runs is the
# canary for fleet (or any) state leaking into the deterministic outputs.
single_a=$(mktemp -d); single_b=$(mktemp -d)
for b in build/bench/fig*; do
  name=$(basename "$b")
  (cd "$single_a" && "$OLDPWD/$b" > "$name.out")
  (cd "$single_b" && "$OLDPWD/$b" > "$name.out")
done
diff -r "$single_a" "$single_b"
rm -rf "$single_a" "$single_b"

echo
echo "OK: build clean, all tests green, TSan + ASan clean, perf + runtime-floor + elastic + ckpt + split + fleet smoke passed"
