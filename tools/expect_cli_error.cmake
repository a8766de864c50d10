# Runs `EXE [INPUT] FLAG VALUE` and fails unless it exits 1 with
# EXPECT_STDERR in its standard error: the CTest check that a bad flag
# value is rejected up front instead of crashing, hanging or being read
# as something else. Invoked by the specai_cli_rejects_* and
# specai_fuzz_rejects_replay_* tests (tools/CMakeLists.txt) as
#   cmake -DEXE=... [-DINPUT=...] -DFLAG=... -DVALUE=... -DEXPECT_STDERR=...
#         -P expect_cli_error.cmake
set(Command "${EXE}")
if(DEFINED INPUT)
  list(APPEND Command "${INPUT}")
endif()
execute_process(
  COMMAND ${Command} "${FLAG}" "${VALUE}"
  RESULT_VARIABLE Code
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err
  TIMEOUT 20)
if(NOT Code STREQUAL "1")
  message(FATAL_ERROR "${FLAG} ${VALUE}: exit '${Code}', expected 1\n"
                      "stdout: ${Out}\nstderr: ${Err}")
endif()
string(FIND "${Err}" "${EXPECT_STDERR}" Pos)
if(Pos EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr lacks '${EXPECT_STDERR}'\n"
                      "stderr: ${Err}")
endif()
