# Fails unless a JSON document parses with CMake's string(JSON) and its top
# level is an object: the CTest check on the JSON records the benches and
# specai-fuzz write, and on the checked-in BENCH_*.json files. Invoked by
# tests in bench/ and tools/ (bench/CMakeLists.txt, tools/CMakeLists.txt) as
#   cmake -DFILE=<path> [-DKEYS="<k1> <k2>"] -P check_json.cmake
#   cmake -DEXE=<program> -DARGS="<args>" [-DKEYS=...] -P check_json.cmake
# The second form runs the program, which must exit 0, and checks its
# standard output. KEYS, when given, is the exact set of top-level member
# names. CMake's reader accepts trailing commas and trailing content after
# the object; CI re-checks the same files with `python3 -m json.tool`.
if(DEFINED EXE)
  separate_arguments(Args UNIX_COMMAND "${ARGS}")
  execute_process(
    COMMAND "${EXE}" ${Args}
    RESULT_VARIABLE Code
    OUTPUT_VARIABLE Text
    ERROR_VARIABLE Err
    TIMEOUT 120)
  if(NOT Code STREQUAL "0")
    message(FATAL_ERROR "${EXE} ${ARGS}: exit '${Code}', expected 0\n"
                        "stdout: ${Text}\nstderr: ${Err}")
  endif()
  set(What "stdout of ${EXE} ${ARGS}")
else()
  file(READ "${FILE}" Text)
  set(What "${FILE}")
endif()

string(JSON Type ERROR_VARIABLE Err TYPE "${Text}")
if(NOT Err STREQUAL "NOTFOUND")
  message(FATAL_ERROR "${What}: malformed JSON: ${Err}\n${Text}")
endif()
if(NOT Type STREQUAL "OBJECT")
  message(FATAL_ERROR "${What}: top level is ${Type}, expected an object")
endif()

if(DEFINED KEYS)
  separate_arguments(Expected UNIX_COMMAND "${KEYS}")
  string(JSON Count LENGTH "${Text}")
  set(Actual "")
  if(Count GREATER 0)
    math(EXPR Last "${Count} - 1")
    foreach(I RANGE ${Last})
      string(JSON Key MEMBER "${Text}" ${I})
      list(APPEND Actual "${Key}")
    endforeach()
  endif()
  list(SORT Expected)
  list(SORT Actual)
  if(NOT Actual STREQUAL Expected)
    message(FATAL_ERROR "${What}: top-level keys '${Actual}', "
                        "expected '${Expected}'")
  endif()
endif()
