#!/usr/bin/env bash
# Full local gate: configure and build the given presets, run the test
# suite under each. This is what CI runs; run it before sending a change.
#
#   scripts/check.sh            # default + asan-ubsan
#   scripts/check.sh default    # just the plain Release build
#   scripts/check.sh asan-ubsan # just the sanitizer build
#   scripts/check.sh tsan       # parallel suites under ThreadSanitizer
#
# The tsan preset is opt-in (slow; ~5-15x): its test preset filters down
# to the concurrency-heavy suites (worker pool, agree sets, partitions,
# TANE, Dep-Miner, RunContext, the dominance kernel, the parallel CMAX
# determinism suites and the tracing/telemetry suites) — see
# CMakePresets.json. The dominance/CMAX suites can also run in isolation
# (ctest -L dominance), as can tracing (ctest -L trace) and the
# exporter/logger/progress suites (ctest -L telemetry).
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
presets=("$@")
if [ "${#presets[@]}" -eq 0 ]; then
  presets=(default asan-ubsan)
fi

for preset in "${presets[@]}"; do
  echo "==> configure [${preset}]"
  cmake --preset "${preset}"
  echo "==> build [${preset}]"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==> test [${preset}]"
  ctest --preset "${preset}" -j "${jobs}"
done

# Tracing smoke-run: a traced mine must produce parseable chrome://tracing
# JSON end to end (the Release build is the one benchmarks ship with).
for preset in "${presets[@]}"; do
  if [ "${preset}" = "default" ] && [ -x build/examples/fdtool ]; then
    echo "==> trace smoke-run [default]"
    trace_out=/tmp/depminer_trace_smoke.json
    build/examples/fdtool mine data/orders.csv --threads=2 \
      --trace="${trace_out}" --metrics >/dev/null 2>&1
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool "${trace_out}" >/dev/null
      echo "    trace JSON parses: ${trace_out}"
    else
      echo "    python3 not found; skipping JSON parse check"
    fi
    rm -f "${trace_out}"
  fi
done

# bench_scale smoke-run: the paper-scale corpus generator and bench
# binary at a seconds-long scale — every grid dataset generated, every
# phase measured once at 1 and 2 threads with identical-output
# verification, JSON emitted and parsed. Keeps the bench binaries and
# the generator from rotting between full baseline runs.
for preset in "${presets[@]}"; do
  case "${preset}" in
    default) bench_scale=build/bench/bench_scale ;;
    asan-ubsan) bench_scale=build-asan-ubsan/bench/bench_scale ;;
    *) continue ;;
  esac
  if [ -x "${bench_scale}" ]; then
    echo "==> bench_scale smoke-run [${preset}]"
    scale_out=/tmp/depminer_bench_scale_smoke_${preset}.json
    "${bench_scale}" --scale=0.002 --reps=1 --threads=1,2 \
      --json="${scale_out}" >/dev/null
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool "${scale_out}" >/dev/null
      echo "    scale JSON parses: ${scale_out}"
    fi
    rm -f "${scale_out}"
  fi
done

# Arity-capped bench smoke-run: the --arity smoke mode restricts the
# sweep to one cap and verifies, per grid dataset, that TANE and
# Dep-Miner agree on the capped cover (the equals-filtered check runs in
# the full sweep). Keeps the pruning plumbing from rotting between
# full baseline runs.
for preset in "${presets[@]}"; do
  case "${preset}" in
    default) bench_scale=build/bench/bench_scale ;;
    asan-ubsan) bench_scale=build-asan-ubsan/bench/bench_scale ;;
    *) continue ;;
  esac
  if [ -x "${bench_scale}" ]; then
    echo "==> bench_scale arity smoke-run [${preset}]"
    arity_out=/tmp/depminer_bench_arity_smoke_${preset}.json
    "${bench_scale}" --scale=0.002 --reps=1 --threads=1 --arity=3 \
      --json="${arity_out}" >/dev/null
    if command -v python3 >/dev/null 2>&1; then
      python3 -m json.tool "${arity_out}" >/dev/null
      echo "    arity JSON parses: ${arity_out}"
    fi
    rm -f "${arity_out}"
  fi
done

# Fuzz smoke-run: a deterministic slice of the differential verification
# harness (docs/VERIFICATION.md) — all five miners cross-checked on 25
# adversarial relations, Armstrong round-trips included. Runs under the
# plain Release build and the sanitizer build; on divergence fdtool exits
# non-zero with the repro path on the last line.
for preset in "${presets[@]}"; do
  case "${preset}" in
    default) fdtool=build/examples/fdtool ;;
    asan-ubsan) fdtool=build-asan-ubsan/examples/fdtool ;;
    *) continue ;;
  esac
  if [ -x "${fdtool}" ]; then
    echo "==> fuzz smoke-run [${preset}]"
    "${fdtool}" fuzz --iterations=25 --seed=7 \
      --repro-dir=/tmp/depminer_fuzz_repros_${preset}
  fi
done

# Fault-sweep smoke-run: inject every registered fault into every miner
# and the CSV reader over 10 seeds (docs/ROBUSTNESS.md) and require both
# that every expectation held AND that faults actually fired — a sweep
# that fires nothing proves nothing. Runs under the plain Release build
# and the sanitizer build.
for preset in "${presets[@]}"; do
  case "${preset}" in
    default) fdtool=build/examples/fdtool ;;
    asan-ubsan) fdtool=build-asan-ubsan/examples/fdtool ;;
    *) continue ;;
  esac
  if [ -x "${fdtool}" ]; then
    echo "==> fault-sweep smoke-run [${preset}]"
    sweep_out="$("${fdtool}" fuzz --faults --iterations=10 --seed=3)"
    echo "    ${sweep_out}"
    case "${sweep_out}" in
      *" 0 with a fired fault"*)
        echo "    ERROR: the sweep never fired a fault" >&2; exit 1 ;;
      *"all expectations held"*) ;;
      *)
        echo "    ERROR: fault-sweep expectations violated" >&2; exit 1 ;;
    esac
  fi
done

# Telemetry smoke-run: generate a corpus-scale dataset with fdtool
# datagen, mine it with the full observability surface on
# (docs/OBSERVABILITY.md) — Prometheus export, JSON logs, live progress —
# and validate the artifacts with a tiny parser: the .prom file must be
# well-formed text exposition with at least 3 histogram families, and
# every stderr line must be a JSON object with level/subsystem/message.
for preset in "${presets[@]}"; do
  case "${preset}" in
    default) fdtool=build/examples/fdtool ;;
    asan-ubsan) fdtool=build-asan-ubsan/examples/fdtool ;;
    *) continue ;;
  esac
  if [ -x "${fdtool}" ] && command -v python3 >/dev/null 2>&1; then
    echo "==> telemetry smoke-run [${preset}]"
    telem_csv=/tmp/depminer_telemetry_smoke_${preset}.csv
    telem_prom=/tmp/depminer_telemetry_smoke_${preset}.prom
    telem_log=/tmp/depminer_telemetry_smoke_${preset}.log
    "${fdtool}" datagen "${telem_csv}" --corpus-scale=0.002 \
      --spec=tuples 2>/dev/null
    "${fdtool}" mine "${telem_csv}" --threads=2 \
      --metrics-out="${telem_prom}" --log-json --progress \
      --progress-ms=200 >/dev/null 2>"${telem_log}"
    python3 - "${telem_prom}" "${telem_log}" <<'PYEOF'
import json, re, sys
prom_path, log_path = sys.argv[1], sys.argv[2]
histograms, samples = set(), 0
with open(prom_path) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            if kind == "histogram":
                histograms.add(name)
            continue
        if line.startswith("#"):
            continue
        m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
        assert m, f"unparseable sample line: {line!r}"
        float(m.group(3))
        assert m.group(1).startswith("depminer_"), line
        samples += 1
assert samples > 0, "no samples in the Prometheus export"
assert len(histograms) >= 3, \
    f"expected >=3 histogram families, got {sorted(histograms)}"
log_lines = 0
with open(log_path) as f:
    for line in f:
        if not line.strip():
            continue
        rec = json.loads(line)
        for key in ("ts", "level", "subsystem", "message"):
            assert key in rec, f"missing {key}: {line!r}"
        log_lines += 1
assert log_lines > 0, "no JSON log lines on stderr"
print(f"    {samples} samples, {len(histograms)} histogram families, "
      f"{log_lines} JSON log lines")
PYEOF
    rm -f "${telem_csv}" "${telem_prom}" "${telem_log}"
  fi
done

# bench_compare self-compare smoke: a baseline compared against itself
# must report zero regressions, and a doubled timing must trip it. Keeps
# the regression gate itself from rotting.
if command -v python3 >/dev/null 2>&1 && [ -f BENCH_scale.json ]; then
  echo "==> bench_compare smoke-run"
  python3 scripts/bench_compare.py BENCH_scale.json BENCH_scale.json \
    --quiet
  python3 - <<'PYEOF'
import json, subprocess, sys
doc = json.load(open("BENCH_agree_threads.json"))
doc["results"][0]["depminer_s"] *= 10.0
path = "/tmp/depminer_bench_compare_smoke.json"
json.dump(doc, open(path, "w"))
rc = subprocess.run(
    [sys.executable, "scripts/bench_compare.py",
     "BENCH_agree_threads.json", path, "--quiet"],
    stdout=subprocess.DEVNULL).returncode
assert rc == 1, f"a 10x regression must exit 1, got {rc}"
print("    self-compare clean; injected regression detected")
PYEOF
  rm -f /tmp/depminer_bench_compare_smoke.json
fi

# perfbench self-test (perfbench/README.md): every workload in smoke mode,
# untraced and traced. Every op's cover must equal a TANE-checked
# reference byte for byte, and the work counts (couples, agree sets, max
# sets, LHS candidates, FDs, ...) must repeat exactly at a fixed seed.
# It builds its own Release library from this checkout into .bench_build/.
for preset in "${presets[@]}"; do
  if [ "${preset}" = "default" ] && command -v python3 >/dev/null 2>&1; then
    echo "==> perfbench self-test [default]"
    python3 perfbench/selftest.py
  fi
done

# Kill-and-resume smoke-run: SIGKILL a checkpointed mine while the
# job/stall fault site holds it at a phase boundary (checkpoint already
# on disk), then resume and require the exact cover an uninterrupted
# mine produces. The harshest crash model we can deliver from a script.
if [ -x build/examples/fdtool ]; then
  echo "==> kill-and-resume smoke-run [default]"
  ckpt_dir=/tmp/depminer_ckpt_smoke
  rm -rf "${ckpt_dir}"
  reference="$(build/examples/fdtool mine data/orders.csv)"
  build/examples/fdtool mine data/orders.csv \
    --checkpoint-dir="${ckpt_dir}" \
    --fault-site=job/stall --fault-hit=0 --fault-stall-ms=60000 \
    >/dev/null 2>&1 &
  mine_pid=$!
  # Wait for the first phase-boundary checkpoint to appear, then kill -9.
  for _ in $(seq 1 100); do
    if ls "${ckpt_dir}"/*.dmk >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  if ! ls "${ckpt_dir}"/*.dmk >/dev/null 2>&1; then
    echo "    ERROR: no checkpoint appeared before the kill" >&2
    kill -9 "${mine_pid}" 2>/dev/null || true
    exit 1
  fi
  kill -9 "${mine_pid}" 2>/dev/null || true
  wait "${mine_pid}" 2>/dev/null || true
  resumed="$(build/examples/fdtool mine data/orders.csv \
      --checkpoint-dir="${ckpt_dir}" 2>/dev/null)"
  if [ "${resumed}" != "${reference}" ]; then
    echo "    ERROR: resumed cover differs from the uninterrupted one" >&2
    exit 1
  fi
  echo "    resumed cover matches after kill -9"
  rm -rf "${ckpt_dir}"
fi

# Serve smoke-run (docs/SERVING.md): start the daemon, register a
# datagen relation, mine it twice asserting the second request is a
# result-cache hit (visible in the scrape-able metrics file), require
# the served cover to equal one-shot `fdtool mine` byte for byte, drain
# on SIGTERM, then kill -9 a fresh daemon and reopen its catalog
# cleanly — the durability contract under the harshest crash model.
for preset in "${presets[@]}"; do
  case "${preset}" in
    default) fdtool=build/examples/fdtool ;;
    asan-ubsan) fdtool=build-asan-ubsan/examples/fdtool ;;
    *) continue ;;
  esac
  if [ -x "${fdtool}" ]; then
    echo "==> serve smoke-run [${preset}]"
    serve_dir=/tmp/depminer_serve_smoke_${preset}
    rm -rf "${serve_dir}"
    mkdir -p "${serve_dir}/cat"
    sock="${serve_dir}/sock"
    prom="${serve_dir}/m.prom"
    "${fdtool}" datagen "${serve_dir}/data.csv" --tuples=200 \
      --attributes=6 --seed=7 2>/dev/null
    "${fdtool}" serve --catalog-dir="${serve_dir}/cat" --socket="${sock}" \
      --threads=2 --metrics-out="${prom}" >"${serve_dir}/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
      [ -S "${sock}" ] && break
      sleep 0.1
    done
    if ! [ -S "${sock}" ]; then
      echo "    ERROR: daemon never bound ${sock}" >&2
      cat "${serve_dir}/serve.log" >&2
      kill -9 "${serve_pid}" 2>/dev/null || true
      exit 1
    fi
    "${fdtool}" client --socket="${sock}" put ds "${serve_dir}/data.csv" \
      >/dev/null 2>&1
    "${fdtool}" client --socket="${sock}" mine ds \
      >"${serve_dir}/cover1.txt" 2>/dev/null
    "${fdtool}" client --socket="${sock}" mine ds \
      >"${serve_dir}/cover2.txt" 2>/dev/null
    if ! cmp -s "${serve_dir}/cover1.txt" "${serve_dir}/cover2.txt"; then
      echo "    ERROR: cached cover differs from the mined one" >&2
      exit 1
    fi
    "${fdtool}" mine "${serve_dir}/data.csv" \
      >"${serve_dir}/oneshot.txt" 2>/dev/null
    if ! cmp -s "${serve_dir}/cover1.txt" "${serve_dir}/oneshot.txt"; then
      echo "    ERROR: served cover differs from one-shot fdtool mine" >&2
      exit 1
    fi
    # The client forwards each mine flag under its MINE parameter name.
    "${fdtool}" client --socket="${sock}" mine ds --algo=tane --arity=2 \
      --topk=3 >"${serve_dir}/flagged1.txt" 2>/dev/null
    "${fdtool}" mine "${serve_dir}/data.csv" --algo=tane --arity=2 \
      --topk=3 >"${serve_dir}/flagged_oneshot.txt" 2>/dev/null
    if ! cmp -s "${serve_dir}/flagged1.txt" \
        "${serve_dir}/flagged_oneshot.txt"; then
      echo "    ERROR: served cover differs from one-shot fdtool mine" \
        "--algo=tane --arity=2 --topk=3" >&2
      exit 1
    fi
    if ! grep -q 'label="cache_hit"} [1-9]' "${prom}"; then
      echo "    ERROR: no server/cache_hit in ${prom}" >&2
      cat "${prom}" >&2
      exit 1
    fi
    kill -TERM "${serve_pid}"
    if ! wait "${serve_pid}"; then
      echo "    ERROR: daemon did not drain cleanly on SIGTERM" >&2
      cat "${serve_dir}/serve.log" >&2
      exit 1
    fi
    if [ -S "${sock}" ]; then
      echo "    ERROR: socket not unlinked after drain" >&2
      exit 1
    fi
    # Crash half: a freshly restarted daemon is SIGKILLed; the catalog
    # it wrote must reopen cleanly with the dataset intact.
    "${fdtool}" serve --catalog-dir="${serve_dir}/cat" --socket="${sock}" \
      --threads=2 >>"${serve_dir}/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
      [ -S "${sock}" ] && break
      sleep 0.1
    done
    "${fdtool}" client --socket="${sock}" ping >/dev/null 2>&1 || true
    kill -9 "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
    if ! "${fdtool}" catalog "${serve_dir}/cat" list | grep -q '^ds$'; then
      echo "    ERROR: catalog did not reopen cleanly after kill -9" >&2
      exit 1
    fi
    echo "    cache hit, bit-identical cover, clean drain, kill -9 reopen"
    rm -rf "${serve_dir}"
  fi
done

echo "==> all checks passed"
