# Flag-validation check, run as a ctest case: a binary given one bad flag
# must reject it as a usage error (exit status 2 plus a diagnostic), not
# crash or run.
#
# Expects: BIN (binary), ARG (the bad flag), EXPECT (regex the combined
#          stdout+stderr must match).

if(NOT BIN OR NOT ARG OR NOT EXPECT)
  message(FATAL_ERROR "run_usage_error_check.cmake needs BIN, ARG and EXPECT")
endif()

execute_process(
  COMMAND "${BIN}" "${ARG}"
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output
)
if(NOT run_result EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARG}: expected exit status 2, got ${run_result}:\n${run_output}")
endif()
if(NOT run_output MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARG}: output does not match '${EXPECT}':\n${run_output}")
endif()
