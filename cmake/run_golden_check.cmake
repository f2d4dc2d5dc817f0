# Golden-output check, run as a ctest case: run one binary in a scratch
# directory and compare its stdout byte for byte with
# <GOLDEN_DIR>/<NAME>.txt. With FILES, also compare the SHA-256 of each named
# output file with <GOLDEN_DIR>/<NAME>.sha256 (`sha256sum` format, in FILES
# order).
#
# On a mismatch the actual output is written beside the test, into WORK_DIR
# as <NAME>.actual.txt or <NAME>.actual.sha256, and the check fails naming
# the golden and the actual file. A change that moves results on purpose
# records its new goldens by copying the actual files over the golden ones.
#
# Expects: NAME (golden base name), BIN (binary), GOLDEN_DIR, WORK_DIR
#          (scratch directory, emptied first; the binary runs there, so
#          relative output paths land in it).
# Optional: ARGS (space-separated flags), FILES (space-separated output
#           files, relative to WORK_DIR).

if(NOT NAME OR NOT BIN OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "run_golden_check.cmake needs NAME, BIN, GOLDEN_DIR and WORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr
)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR
    "${BIN} ${ARGS} failed (${run_result}):\n${run_stdout}${run_stderr}")
endif()

# Compare `actual` with the golden file of extension `ext`; on a mismatch
# write the actual file and append both paths to `mismatches`.
set(mismatches "")
function(compare_golden ext actual)
  set(golden_file "${GOLDEN_DIR}/${NAME}.${ext}")
  set(actual_file "${WORK_DIR}/${NAME}.actual.${ext}")
  set(expected "")
  if(EXISTS "${golden_file}")
    file(READ "${golden_file}" expected)
  endif()
  if(NOT "${actual}" STREQUAL "${expected}")
    file(WRITE "${actual_file}" "${actual}")
    set(mismatches "${mismatches}  golden ${golden_file}\n  actual ${actual_file}\n"
        PARENT_SCOPE)
  endif()
endfunction()

compare_golden(txt "${run_stdout}")

if(FILES)
  separate_arguments(files UNIX_COMMAND "${FILES}")
  set(sums "")
  foreach(f IN LISTS files)
    if(NOT EXISTS "${WORK_DIR}/${f}")
      message(FATAL_ERROR "${BIN} ${ARGS} did not write ${WORK_DIR}/${f}")
    endif()
    file(SHA256 "${WORK_DIR}/${f}" hash)
    string(APPEND sums "${hash}  ${f}\n")
  endforeach()
  compare_golden(sha256 "${sums}")
endif()

if(mismatches)
  message(FATAL_ERROR "${NAME}: output differs from the golden:\n${mismatches}")
endif()
