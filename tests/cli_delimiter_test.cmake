# Scripted CLI test for --delimiter: a delimiter the tokenizer cannot use
# unambiguously (more than one byte, a quote while quoting is on, CR, LF)
# is a usage error, exit 2, on every command; a valid one is honored.

set(CSV ${WORK}/cli_delimiter.csv)
file(WRITE ${CSV} "a;b\n1;x\n2;y\n3;x\n")

foreach(bad ";;" "\"" "\n" "\r")
  foreach(command "mine" "stats")
    execute_process(COMMAND ${FDTOOL} ${command} ${CSV} "--delimiter=${bad}"
                    RESULT_VARIABLE result ERROR_VARIABLE error)
    if(NOT result EQUAL 2 OR NOT error MATCHES "delimiter")
      message(FATAL_ERROR
              "${command} --delimiter=[${bad}] should exit 2 naming the "
              "delimiter, got ${result}: ${error}")
    endif()
  endforeach()
endforeach()

execute_process(COMMAND ${FDTOOL} client put ds ${CSV} "--delimiter=;;"
                        --socket=${WORK}/cli_delimiter_no_such.sock
                RESULT_VARIABLE put_result)
if(NOT put_result EQUAL 2)
  message(FATAL_ERROR "client put --delimiter=;; should exit 2, got ${put_result}")
endif()

execute_process(COMMAND ${FDTOOL} mine ${CSV} "--delimiter=;"
                RESULT_VARIABLE ok_result OUTPUT_VARIABLE ok_output)
if(NOT ok_result EQUAL 0 OR NOT ok_output MATCHES "a -> b")
  message(FATAL_ERROR "mine --delimiter=; failed (${ok_result}): ${ok_output}")
endif()

file(REMOVE ${CSV})
