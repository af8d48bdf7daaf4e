# Scripted CLI test for the mine-request keys (--algo, --threads, --arity,
# --error, --topk, --timeout-ms, --memory-budget-mb), which every command
# parses once under the rules MINE shares. A malformed value is a usage
# error: exit 2 exactly, one exact stderr line and nothing on stdout. That
# holds on `mine`, on the other commands, and on `client`, which validates
# before it connects (the socket below does not exist). A limit past what
# the clock or size_t can represent means no limit.

set(SOCKET ${WORK}/request_flags_no_daemon.sock)
set(EMPLOYEES ${DATA}/employees.csv)

# expect_usage_error(<stderr line> <fdtool argument>...)
function(expect_usage_error expected)
  execute_process(COMMAND ${FDTOOL} ${ARGN}
                  RESULT_VARIABLE result OUTPUT_VARIABLE output
                  ERROR_VARIABLE error)
  string(JOIN " " command ${ARGN})
  if(NOT result EQUAL 2)
    message(FATAL_ERROR "fdtool ${command}: expected exit 2, got "
                        "${result}: ${output}${error}")
  endif()
  if(NOT error STREQUAL "error: ${expected}\n")
    message(FATAL_ERROR "fdtool ${command}: expected stderr\n"
                        "error: ${expected}\ngot\n${error}")
  endif()
  if(NOT output STREQUAL "")
    message(FATAL_ERROR "fdtool ${command}: printed to stdout: ${output}")
  endif()
endfunction()

# Each malformed key, on `mine` and forwarded by `client mine`.
set(kMiners "depminer|depminer2|tane|fastfds|fdep")
set(kRequiresTane "--error (approximate discovery) requires mine --algo=tane")
foreach(verb mine client)
  if(verb STREQUAL "mine")
    set(prefix mine ${EMPLOYEES})
  else()
    set(prefix client --socket=${SOCKET} mine ds)
  endif()
  expect_usage_error("unknown --algo \"tanee\" (${kMiners})"
                     ${prefix} --algo=tanee)
  expect_usage_error("--threads must be a non-negative integer, got \"abc\""
                     ${prefix} --threads=abc)
  expect_usage_error("--threads must be a non-negative integer, got \"-1\""
                     ${prefix} --threads=-1)
  expect_usage_error("--arity must be a positive integer, got \"0\""
                     ${prefix} --arity=0)
  expect_usage_error("--arity must be a positive integer, got \"abc\""
                     ${prefix} --arity=abc)
  expect_usage_error("--topk must be a positive integer, got \"0\""
                     ${prefix} --topk=0)
  expect_usage_error("--topk must be a positive integer, got \"none\""
                     ${prefix} --algo=tane --topk=none)
  expect_usage_error("--error must be a real number in [0,1), got \"1.5\""
                     ${prefix} --algo=tane --error=1.5)
  expect_usage_error("--error must be a real number in [0,1), got \"abc\""
                     ${prefix} --algo=tane --error=abc)
  expect_usage_error("${kRequiresTane}" ${prefix} --error=0.1)
  expect_usage_error("${kRequiresTane}" ${prefix} --algo=depminer --error=0)
  expect_usage_error("--timeout-ms must be a non-negative integer, got \"-5\""
                     ${prefix} --timeout-ms=-5)
  expect_usage_error("--timeout-ms must be a non-negative integer, got \"\""
                     ${prefix} --timeout-ms=)
  expect_usage_error(
      "--memory-budget-mb must be a non-negative integer, got \"abc\""
      ${prefix} --memory-budget-mb=abc)
  # Above UINT64_MAX a value is malformed, not saturated.
  expect_usage_error(
      "--timeout-ms must be a non-negative integer, got \"99999999999999999999\""
      ${prefix} --timeout-ms=99999999999999999999)
  expect_usage_error(
      "--memory-budget-mb must be a non-negative integer, got \"18446744073709551616\""
      ${prefix} --memory-budget-mb=18446744073709551616)
  expect_usage_error(
      "--threads must be a non-negative integer, got \"18446744073709551616\""
      ${prefix} --threads=18446744073709551616)
  expect_usage_error(
      "--arity must be a positive integer, got \"18446744073709551616\""
      ${prefix} --arity=18446744073709551616)
endforeach()

# Commands other than mine parse the same keys; only mine and client take
# --error at all.
expect_usage_error("--arity must be a positive integer, got \"0\""
                   keys ${EMPLOYEES} --arity=0)
expect_usage_error("${kRequiresTane}"
                   profile ${EMPLOYEES} --error=0.1 --algo=tane)

# PUT has no parameter for NULL handling, so client put refuses the flags
# instead of dropping them.
foreach(flag --nulls-distinct --null-token=NA)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  expect_usage_error(
      "client put cannot send ${name}: PUT stores NULL tokens as ordinary values"
      client --socket=${SOCKET} put ds ${EMPLOYEES} ${flag})
endforeach()

# Limits past the representable range: 9.3e12 ms overflows now() in
# steady_clock nanoseconds, and 2^44 + 1 MiB overflows size_t bytes (it
# used to wrap to a 1 MiB budget, which this 5000 x 15 relation exceeds).
set(relation ${WORK}/request_flags.csv)
execute_process(COMMAND ${FDTOOL} datagen ${relation} --tuples=5000
                        --attributes=15 --identical-rate=0.5 --seed=42
                RESULT_VARIABLE result ERROR_VARIABLE error)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "datagen failed (${result}): ${error}")
endif()
execute_process(COMMAND ${FDTOOL} mine ${relation}
                RESULT_VARIABLE result OUTPUT_VARIABLE plain
                ERROR_VARIABLE error)
if(NOT result EQUAL 0 OR plain STREQUAL "")
  message(FATAL_ERROR "plain mine failed (${result}): ${error}")
endif()
foreach(limit --timeout-ms=9300000000000 --memory-budget-mb=17592186044417)
  execute_process(COMMAND ${FDTOOL} mine ${relation} ${limit}
                  RESULT_VARIABLE result OUTPUT_VARIABLE output
                  ERROR_VARIABLE error)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "mine ${limit}: expected exit 0, got ${result}: "
                        "${error}")
  endif()
  if(NOT output STREQUAL plain)
    message(FATAL_ERROR "mine ${limit}: cover differs from a plain mine")
  endif()
endforeach()
