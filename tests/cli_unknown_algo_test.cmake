# Scripted CLI test for --algo: a name outside the five miners is a usage
# error, exit 2 exactly, whose message lists the choices; it must never
# fall through to a default miner.

execute_process(COMMAND ${FDTOOL} mine ${DATA}/employees.csv --algo=tanee
                RESULT_VARIABLE result OUTPUT_VARIABLE output
                ERROR_VARIABLE error)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "mine --algo=tanee should exit 2, got ${result}: "
                      "${output}${error}")
endif()
if(NOT error MATCHES "depminer\\|depminer2\\|tane\\|fastfds\\|fdep")
  message(FATAL_ERROR "mine --algo=tanee should name the five miners: "
                      "${error}")
endif()
if(NOT output STREQUAL "")
  message(FATAL_ERROR "mine --algo=tanee mined anyway: ${output}")
endif()
