# End-to-end CLI tests for fdtool, driven by ctest: each case runs the
# real binary on the bundled datasets and checks output/exit codes.

set(FDTOOL $<TARGET_FILE:fdtool>)
set(DATA ${CMAKE_SOURCE_DIR}/data)

add_test(NAME cli.mine COMMAND fdtool mine ${DATA}/employees.csv)
set_tests_properties(cli.mine PROPERTIES
    PASS_REGULAR_EXPRESSION "depname -> depnum")

add_test(NAME cli.mine_tane COMMAND fdtool mine ${DATA}/employees.csv
         --algo=tane)
set_tests_properties(cli.mine_tane PROPERTIES
    PASS_REGULAR_EXPRESSION "depname -> depnum")

add_test(NAME cli.keys COMMAND fdtool keys ${DATA}/orders.csv)
set_tests_properties(cli.keys PROPERTIES
    PASS_REGULAR_EXPRESSION "order_id")

add_test(NAME cli.normalize COMMAND fdtool normalize ${DATA}/orders.csv)
set_tests_properties(cli.normalize PROPERTIES
    PASS_REGULAR_EXPRESSION "Candidate keys")

add_test(NAME cli.verify_holds COMMAND fdtool verify ${DATA}/orders.csv
         "zip->city")
set_tests_properties(cli.verify_holds PROPERTIES
    PASS_REGULAR_EXPRESSION "holds")

add_test(NAME cli.verify_violated COMMAND fdtool verify ${DATA}/orders.csv
         "city->zip")
set_tests_properties(cli.verify_violated PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.stats COMMAND fdtool stats ${DATA}/courses.csv)
set_tests_properties(cli.stats PROPERTIES
    PASS_REGULAR_EXPRESSION "attributes: 6")

add_test(NAME cli.armstrong COMMAND fdtool armstrong ${DATA}/employees.csv)
set_tests_properties(cli.armstrong PROPERTIES
    PASS_REGULAR_EXPRESSION "empnum,depnum,year,depname,mgr")

add_test(NAME cli.profile_json COMMAND fdtool profile ${DATA}/orders.csv
         --format=json)
set_tests_properties(cli.profile_json PROPERTIES
    PASS_REGULAR_EXPRESSION "\"candidate_keys\"")

add_test(NAME cli.inds COMMAND fdtool inds ${DATA}/orders.csv
         ${DATA}/courses.csv)

add_test(NAME cli.missing_file COMMAND fdtool mine /nonexistent.csv)
set_tests_properties(cli.missing_file PROPERTIES WILL_FAIL TRUE)

# Tracing: a traced mine run writes the chrome://tracing JSON and prints
# the metrics summary (phase table on stderr, confirmation on stdout).
# A -DDEPMINER_TRACING=OFF build collects no spans, so only the flags'
# basic plumbing can be asserted there.
if(DEPMINER_TRACING)
  add_test(NAME cli.mine_trace COMMAND fdtool mine ${DATA}/orders.csv
           --threads=2 --trace=${CMAKE_CURRENT_BINARY_DIR}/cli_trace.json
           --metrics)
  set_tests_properties(cli.mine_trace PROPERTIES
      PASS_REGULAR_EXPRESSION "phase/agree")
else()
  add_test(NAME cli.mine_trace COMMAND fdtool mine ${DATA}/orders.csv
           --threads=2 --trace=${CMAKE_CURRENT_BINARY_DIR}/cli_trace.json
           --metrics)
  set_tests_properties(cli.mine_trace PROPERTIES
      PASS_REGULAR_EXPRESSION "trace written to")
endif()

# Telemetry export and the other observability flags. The exported
# Prometheus file is validated structurally by the check.sh smoke; here
# the CLI-visible contract is asserted: confirmation lines, log shapes,
# and malformed flags exiting as usage errors.
add_test(NAME cli.mine_metrics_out COMMAND fdtool mine ${DATA}/orders.csv
         --threads=2
         --metrics-out=${CMAKE_CURRENT_BINARY_DIR}/cli_metrics.prom)
set_tests_properties(cli.mine_metrics_out PROPERTIES
    PASS_REGULAR_EXPRESSION "metrics written to")

add_test(NAME cli.mine_metrics_json COMMAND fdtool mine ${DATA}/orders.csv
         --metrics-out=${CMAKE_CURRENT_BINARY_DIR}/cli_metrics.json)
set_tests_properties(cli.mine_metrics_json PROPERTIES
    PASS_REGULAR_EXPRESSION "metrics written to")

add_test(NAME cli.bad_metrics_ext COMMAND fdtool mine ${DATA}/orders.csv
         --metrics-out=${CMAKE_CURRENT_BINARY_DIR}/cli_metrics.csv)
set_tests_properties(cli.bad_metrics_ext PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.bad_trace_ext COMMAND fdtool mine ${DATA}/orders.csv
         --trace=${CMAKE_CURRENT_BINARY_DIR}/cli_trace.txt)
set_tests_properties(cli.bad_trace_ext PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.mine_log_json COMMAND fdtool mine ${DATA}/employees.csv
         --log-json)
set_tests_properties(cli.mine_log_json PROPERTIES
    PASS_REGULAR_EXPRESSION "\"subsystem\":\"fdtool\"")

add_test(NAME cli.bad_log_level COMMAND fdtool mine ${DATA}/employees.csv
         --log-level=chatty)
set_tests_properties(cli.bad_log_level PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.mine_progress COMMAND fdtool mine ${DATA}/employees.csv
         --progress)
set_tests_properties(cli.mine_progress PROPERTIES
    PASS_REGULAR_EXPRESSION "progress")

add_test(NAME cli.datagen
    COMMAND ${CMAKE_COMMAND}
        -DFDTOOL=$<TARGET_FILE:fdtool>
        -DWORK=${CMAKE_CURRENT_BINARY_DIR}
        -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_datagen_test.cmake)

# Generous resource limits must not change results.
add_test(NAME cli.mine_governed COMMAND fdtool mine ${DATA}/employees.csv
         --timeout-ms=60000 --memory-budget-mb=1024)
set_tests_properties(cli.mine_governed PROPERTIES
    PASS_REGULAR_EXPRESSION "depname -> depnum")

add_test(NAME cli.bad_timeout COMMAND fdtool mine ${DATA}/employees.csv
         --timeout-ms=-5)
set_tests_properties(cli.bad_timeout PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.usage COMMAND fdtool)
set_tests_properties(cli.usage PROPERTIES WILL_FAIL TRUE)

# Pipeline: mine to a .fds file, then query it with `implies`.
add_test(NAME cli.pipeline
    COMMAND ${CMAKE_COMMAND}
        -DFDTOOL=$<TARGET_FILE:fdtool>
        -DDATA=${DATA}
        -DWORK=${CMAKE_CURRENT_BINARY_DIR}
        -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_pipeline_test.cmake)

# Example binaries double as end-to-end smoke tests.
add_test(NAME example.quickstart COMMAND quickstart)
set_tests_properties(example.quickstart PROPERTIES
    PASS_REGULAR_EXPRESSION "Minimal non-trivial functional dependencies \\(14\\)")

add_test(NAME example.logical_tuning COMMAND logical_tuning --tuples=200)
set_tests_properties(example.logical_tuning PROPERTIES
    PASS_REGULAR_EXPRESSION "Candidate keys")

add_test(NAME example.benchmark_sweep COMMAND benchmark_sweep --attrs=8
         --tuples=500)
set_tests_properties(example.benchmark_sweep PROPERTIES
    PASS_REGULAR_EXPRESSION "found the same")

add_test(NAME example.armstrong_explorer COMMAND armstrong_explorer
         --attrs=6 --tuples=2000)
set_tests_properties(example.armstrong_explorer PROPERTIES
    PASS_REGULAR_EXPRESSION "verification ok")

add_test(NAME example.streaming_mine COMMAND streaming_mine --tuples=5000
         --attrs=8)
set_tests_properties(example.streaming_mine PROPERTIES
    PASS_REGULAR_EXPRESSION "covers identical: yes")

add_test(NAME example.paper_walkthrough COMMAND paper_walkthrough)
set_tests_properties(example.paper_walkthrough PROPERTIES
    PASS_REGULAR_EXPRESSION "r \\|= BC -> A")

add_test(NAME cli.fks COMMAND fdtool fks ${DATA}/orders.csv
         ${DATA}/customers.csv)
set_tests_properties(cli.fks PROPERTIES
    PASS_REGULAR_EXPRESSION "customers.csv")

add_test(NAME example.schema_discovery COMMAND schema_discovery
         ${DATA}/orders.csv ${DATA}/customers.csv)
set_tests_properties(example.schema_discovery PROPERTIES
    PASS_REGULAR_EXPRESSION "foreign-key candidates")

add_test(NAME cli.repair COMMAND fdtool repair ${DATA}/orders.csv
         "customer->city")
set_tests_properties(cli.repair PROPERTIES
    PASS_REGULAR_EXPRESSION "0 tuple")

# Search-space pruning flags: the capped/approximate/top-k paths produce
# the documented output shapes, and malformed knob values are usage
# errors (exit 2), not silent defaults.
add_test(NAME cli.mine_arity COMMAND fdtool mine ${DATA}/employees.csv
         --arity=1)
set_tests_properties(cli.mine_arity PROPERTIES
    PASS_REGULAR_EXPRESSION "depname -> depnum")

add_test(NAME cli.mine_topk COMMAND fdtool mine ${DATA}/employees.csv
         --algo=tane --topk=3)
set_tests_properties(cli.mine_topk PROPERTIES
    PASS_REGULAR_EXPRESSION "# redundancy=")

add_test(NAME cli.mine_error_tane COMMAND fdtool mine ${DATA}/employees.csv
         --algo=tane --error=0.05)
set_tests_properties(cli.mine_error_tane PROPERTIES
    PASS_REGULAR_EXPRESSION "->")

add_test(NAME cli.bad_arity COMMAND fdtool mine ${DATA}/employees.csv
         --arity=0)
set_tests_properties(cli.bad_arity PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.bad_topk COMMAND fdtool mine ${DATA}/employees.csv
         --algo=tane --topk=none)
set_tests_properties(cli.bad_topk PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.bad_error COMMAND fdtool mine ${DATA}/employees.csv
         --algo=tane --error=1.5)
set_tests_properties(cli.bad_error PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.error_wrong_algo COMMAND fdtool mine ${DATA}/employees.csv
         --error=0.05)
set_tests_properties(cli.error_wrong_algo PROPERTIES WILL_FAIL TRUE)

add_test(NAME cli.pruning_checkpoint_conflict COMMAND fdtool mine
         ${DATA}/employees.csv --arity=2
         --checkpoint-dir=${CMAKE_CURRENT_BINARY_DIR}/cli_ckpt_conflict)
set_tests_properties(cli.pruning_checkpoint_conflict PROPERTIES
    WILL_FAIL TRUE)

# Differential verification harness: a deterministic clean slice must
# report zero failing seeds, and a bad flag must be a usage error.
add_test(NAME cli.fuzz COMMAND fdtool fuzz --iterations=5 --seed=1
         --repro-dir=${CMAKE_CURRENT_BINARY_DIR}/cli_fuzz_repros)
set_tests_properties(cli.fuzz PROPERTIES
    PASS_REGULAR_EXPRESSION "0 failing seed")

add_test(NAME cli.fuzz_bad_seed COMMAND fdtool fuzz --iterations=5
         --seed=ten)
set_tests_properties(cli.fuzz_bad_seed PROPERTIES WILL_FAIL TRUE)

# The CSV delimiter is validated once, in the CSV layer: an ambiguous one
# is a usage error on every command.
add_test(NAME cli.delimiter
    COMMAND ${CMAKE_COMMAND}
        -DFDTOOL=$<TARGET_FILE:fdtool>
        -DWORK=${CMAKE_CURRENT_BINARY_DIR}
        -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_delimiter_test.cmake)

# An unknown --algo is a usage error naming the miners, never a silent
# Dep-Miner run.
add_test(NAME cli.unknown_algo
    COMMAND ${CMAKE_COMMAND}
        -DFDTOOL=$<TARGET_FILE:fdtool>
        -DDATA=${DATA}
        -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_unknown_algo_test.cmake)

add_test(NAME cli.catalog
    COMMAND ${CMAKE_COMMAND}
        -DFDTOOL=$<TARGET_FILE:fdtool>
        -DDATA=${DATA}
        -DWORK=${CMAKE_CURRENT_BINARY_DIR}
        -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_catalog_test.cmake)

# Crash-safe mining: a checkpointed mine finds the same cover, and an
# interrupted one resumes from the written checkpoint bit-identically
# (the script injects the interruption via the fault layer).
add_test(NAME cli.mine_checkpoint COMMAND fdtool mine ${DATA}/employees.csv
         --checkpoint-dir=${CMAKE_CURRENT_BINARY_DIR}/cli_ckpt)
set_tests_properties(cli.mine_checkpoint PROPERTIES
    PASS_REGULAR_EXPRESSION "depname -> depnum")

add_test(NAME cli.checkpoint_resume
    COMMAND ${CMAKE_COMMAND}
        -DFDTOOL=$<TARGET_FILE:fdtool>
        -DDATA=${DATA}
        -DWORK=${CMAKE_CURRENT_BINARY_DIR}
        -DFAULTS=${DEPMINER_FAULTS}
        -DTRACING=${DEPMINER_TRACING}
        -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_checkpoint_test.cmake)

# Fault injection: the sweep holds on a small slice, a debug-injected
# allocation failure degrades a mine to a partial result (the regex match
# is the pass criterion; the run itself exits 3) whose warning goes
# straight from "partial results:" to the FD count, and an unknown site is
# a usage error. Only meaningful when the sites are compiled in.
if(DEPMINER_FAULTS)
  add_test(NAME cli.fuzz_faults COMMAND fdtool fuzz --faults --iterations=2
           --seed=1)
  set_tests_properties(cli.fuzz_faults PROPERTIES
      PASS_REGULAR_EXPRESSION "all expectations held")

  add_test(NAME cli.fault_site COMMAND fdtool mine ${DATA}/employees.csv
           --fault-site=alloc/agree)
  set_tests_properties(cli.fault_site PROPERTIES
      PASS_REGULAR_EXPRESSION
      "run interrupted \\(CapacityExceeded[^\n]*; partial results:\n[0-9]+ minimal FDs \\(possibly incomplete\\)")

  add_test(NAME cli.fault_bad_site COMMAND fdtool mine ${DATA}/employees.csv
           --fault-site=bogus/site)
  set_tests_properties(cli.fault_bad_site PROPERTIES WILL_FAIL TRUE)
endif()
