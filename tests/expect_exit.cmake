# Runs a command and requires an exact exit code, and optionally a pattern in
# its stderr and stdout equal to a file's bytes. With IN/OUT/MATCH/REPLACE it first writes OUT as a copy of IN
# with every MATCH (a regex) replaced, so a test can feed a tool a corrupted
# file; a MATCH that is not in IN is an error, so the check cannot pass
# vacuously.
#
#   cmake -DCOMMAND="tool|arg|..." -DEXPECT_CODE=2 [-DEXPECT_STDERR=regex]
#         [-DEXPECT_STDOUT_FILE=file]
#         [-DIN=file -DOUT=copy -DMATCH=regex -DREPLACE=text]
#         -P expect_exit.cmake
#
# COMMAND separates its arguments with "|" (a ";" would be split by add_test).
if(DEFINED IN)
  file(READ "${IN}" text)
  string(REGEX MATCH "${MATCH}" found "${text}")
  if(found STREQUAL "")
    message(FATAL_ERROR "pattern '${MATCH}' not found in ${IN}")
  endif()
  string(REGEX REPLACE "${MATCH}" "${REPLACE}" text "${text}")
  file(WRITE "${OUT}" "${text}")
endif()

string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_VARIABLE out)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT_CODE}; stderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT_FILE)
  file(READ "${EXPECT_STDOUT_FILE}" expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "stdout differs from ${EXPECT_STDOUT_FILE}")
  endif()
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
message(STATUS "exit ${code} as expected: ${err}")
