# Runs BINARY with ARGS (a ;-list) and requires exit status 2 and a message
# on stderr that contains VALUE. Used by the element_lab_rejects_* and
# element_fleet_rejects_* ctest entries: a bad flag value or suite must be
# refused, not crash or fall back silently.
execute_process(COMMAND ${BINARY} ${ARGS} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with '${rc}', expected 2")
endif()
string(FIND "${err}" "${VALUE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${VALUE}': ${err}")
endif()
