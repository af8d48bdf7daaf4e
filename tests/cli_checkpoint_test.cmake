# Scripted CLI test for crash-safe mining: interrupt a checkpointed mine
# partway through the pipeline, then re-run the identical command and
# check that it (a) announces the resume and (b) produces exactly the
# cover an uninterrupted mine produces. A fresh checkpointed mine also
# honours --metrics and --trace like a plain one.

set(DIR ${WORK}/cli_checkpoint_dir)
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})

# The uninterrupted reference cover.
execute_process(COMMAND ${FDTOOL} mine ${DATA}/employees.csv
                RESULT_VARIABLE ref_result OUTPUT_VARIABLE ref_output)
if(NOT ref_result EQUAL 0)
  message(FATAL_ERROR "reference mine failed: ${ref_result}")
endif()

if(FAULTS)
  # Interrupt after the agree-set phase: the injected allocation failure
  # trips the CMAX stage, so the job stops with the kAgree checkpoint on
  # disk (exit 3 = tripped limit).
  execute_process(COMMAND ${FDTOOL} mine ${DATA}/employees.csv
                  --checkpoint-dir=${DIR} --fault-site=alloc/cmax
                  RESULT_VARIABLE interrupted_result
                  ERROR_VARIABLE interrupted_stderr)
  if(NOT interrupted_result EQUAL 3)
    message(FATAL_ERROR
            "interrupted mine exited ${interrupted_result}, expected 3: "
            "${interrupted_stderr}")
  endif()
  if(NOT interrupted_stderr MATCHES "checkpoint: ")
    message(FATAL_ERROR
            "interrupted mine printed no checkpoint path: "
            "${interrupted_stderr}")
  endif()
  file(GLOB checkpoints ${DIR}/*.dmk)
  if(NOT checkpoints)
    message(FATAL_ERROR "no checkpoint written under ${DIR}")
  endif()
else()
  # Faults compiled out: seed the directory with a clean full run so the
  # second invocation still exercises the resume path (from kCover).
  execute_process(COMMAND ${FDTOOL} mine ${DATA}/employees.csv
                  --checkpoint-dir=${DIR}
                  RESULT_VARIABLE seeded_result)
  if(NOT seeded_result EQUAL 0)
    message(FATAL_ERROR "seeding mine failed: ${seeded_result}")
  endif()
endif()

# Resume: same command, no fault. Must announce the resume and match the
# reference cover line for line.
execute_process(COMMAND ${FDTOOL} mine ${DATA}/employees.csv
                --checkpoint-dir=${DIR}
                RESULT_VARIABLE resumed_result
                OUTPUT_VARIABLE resumed_output
                ERROR_VARIABLE resumed_stderr)
if(NOT resumed_result EQUAL 0)
  message(FATAL_ERROR "resumed mine failed: ${resumed_stderr}")
endif()
if(NOT resumed_stderr MATCHES "resumed from phase")
  message(FATAL_ERROR "resume not announced: ${resumed_stderr}")
endif()
if(NOT resumed_output STREQUAL ref_output)
  message(FATAL_ERROR "resumed cover differs from the uninterrupted one:\n"
          "--- resumed ---\n${resumed_output}\n"
          "--- reference ---\n${ref_output}")
endif()

file(REMOVE_RECURSE ${DIR})

# Observability: the checkpointed phases run inside the trace session.
if(TRACING)
  file(MAKE_DIRECTORY ${DIR})
  set(TRACE ${WORK}/cli_checkpoint_trace.json)
  file(REMOVE ${TRACE})
  execute_process(COMMAND ${FDTOOL} mine ${DATA}/employees.csv
                  --checkpoint-dir=${DIR} --metrics --trace=${TRACE}
                  RESULT_VARIABLE traced_result
                  OUTPUT_VARIABLE traced_output
                  ERROR_VARIABLE traced_stderr)
  if(NOT traced_result EQUAL 0)
    message(FATAL_ERROR "traced checkpointed mine failed: ${traced_stderr}")
  endif()
  # The job key, probe and saves fall in phase/checkpoint and the printed
  # cover in phase/render, so the phases account for the whole session.
  foreach(phase agree checkpoint render)
    if(NOT traced_stderr MATCHES "phase/${phase}")
      message(FATAL_ERROR
              "--metrics printed no phase/${phase}: ${traced_stderr}")
    endif()
  endforeach()
  if(NOT traced_output STREQUAL ref_output)
    message(FATAL_ERROR "traced checkpointed cover differs from the "
            "reference:\n${traced_output}")
  endif()
  if(NOT EXISTS ${TRACE})
    message(FATAL_ERROR "--trace wrote no file")
  endif()
  file(READ ${TRACE} trace_json)
  if(NOT trace_json MATCHES "\"traceEvents\": *\\[ *{")
    message(FATAL_ERROR "--trace wrote no events: ${trace_json}")
  endif()
  file(REMOVE ${TRACE})
  file(REMOVE_RECURSE ${DIR})
endif()
