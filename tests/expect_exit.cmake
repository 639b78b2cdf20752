# Runs BENCH with ARGS and requires exit status CODE and a stderr line
# matching the regex MATCH.
#   cmake -DBENCH=<exe> "-DARGS=a;b" -DCODE=2 "-DMATCH=<regex>" -P expect_exit.cmake
execute_process(COMMAND ${BENCH} ${ARGS}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${CODE}")
  message(FATAL_ERROR "expected exit status ${CODE}, got ${rc}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
