# Runs EXE and fails unless it exits 0 and its stdout equals the
# committed GOLDEN file byte for byte. Usage:
#   cmake -DEXE=<executable> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}; got:\n"
                      "${actual}")
endif()
