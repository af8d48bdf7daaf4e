# Scripted CLI test for --delimiter: a delimiter the tokenizer cannot use
# unambiguously (more than one byte, a quote while quoting is on, CR, LF)
# is a usage error, exit 2, on every command; a valid one is honored,
# by the single-file commands, by inds/fks and by catalog put.

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

# The multi-file commands and the catalog take the same CSV flags: with
# --delimiter=; the two columns of each file are two columns, not one
# column named "a;b".
set(REF ${WORK}/cli_delimiter_ref.csv)
file(WRITE ${REF} "c;d\n1;x\n2;y\n3;x\n4;z\n")

execute_process(COMMAND ${FDTOOL} inds ${CSV} ${REF} "--delimiter=;"
                RESULT_VARIABLE inds_result OUTPUT_VARIABLE inds_output)
if(NOT inds_result EQUAL 0 OR NOT inds_output MATCHES "\\.a <= [^\n]*\\.c\n"
   OR NOT inds_output MATCHES "\\.b <= [^\n]*\\.d\n"
   OR inds_output MATCHES "a;b")
  message(FATAL_ERROR "inds --delimiter=; failed (${inds_result}): ${inds_output}")
endif()

execute_process(COMMAND ${FDTOOL} fks ${CSV} ${REF} "--delimiter=;"
                RESULT_VARIABLE fks_result OUTPUT_VARIABLE fks_output)
if(NOT fks_result EQUAL 0
   OR NOT fks_output MATCHES "\\[a\\] <= [^\n]*\\[c\\]  \\(references a candidate key\\)")
  message(FATAL_ERROR "fks --delimiter=; failed (${fks_result}): ${fks_output}")
endif()

set(CATALOG ${WORK}/cli_delimiter_catalog)
file(REMOVE_RECURSE ${CATALOG})
file(MAKE_DIRECTORY ${CATALOG})
execute_process(COMMAND ${FDTOOL} catalog ${CATALOG} put ds ${CSV}
                        "--delimiter=;"
                RESULT_VARIABLE put_ok_result ERROR_VARIABLE put_ok_error)
execute_process(COMMAND ${FDTOOL} catalog ${CATALOG} get ds
                RESULT_VARIABLE get_result OUTPUT_VARIABLE get_output)
if(NOT put_ok_result EQUAL 0 OR NOT get_result EQUAL 0
   OR NOT get_output STREQUAL "a,b\n1,x\n2,y\n3,x\n")
  message(FATAL_ERROR "catalog put --delimiter=; stored the wrong relation "
                      "(put ${put_ok_result}: ${put_ok_error}; get "
                      "${get_result}): ${get_output}")
endif()

file(REMOVE_RECURSE ${CATALOG})
file(REMOVE ${CSV} ${REF})
