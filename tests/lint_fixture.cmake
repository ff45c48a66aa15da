# Runs tools/lint_sim.py (LINT, with PYTHON) on the fixture tree ROOT and
# requires exit status 1 and exactly the findings in ROOT/expected.txt. Used
# by the lint_sim_r10_fixture and lint_sim_r12_fixture ctest entries: each
# rule must flag what only tests reach and nothing a run reaches.
execute_process(COMMAND ${PYTHON} ${LINT} --root ${ROOT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "lint_sim --root ${ROOT} exited with '${rc}', expected 1:\n${out}")
endif()
file(READ ${ROOT}/expected.txt expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "lint_sim findings differ from ${ROOT}/expected.txt:\n${out}")
endif()
