# Runs the built ontology_server with one malformed numeric flag at a
# time. Each run must exit 2 promptly and name the flag on stderr; a
# server that reads the value as a number and starts serving is killed
# by the timeout and fails the test.
#
#   cmake -DSERVER=<path to ontology_server> -P server_flags_test.cmake
if(NOT SERVER)
  message(FATAL_ERROR "pass -DSERVER=<path to ontology_server>")
endif()
foreach(flag IN ITEMS --burst=abc --qps=1e999 --workers=4x --port=70000)
  string(REGEX REPLACE "=.*" "" name "${flag}")
  execute_process(COMMAND "${SERVER}" --demo --port=0 ${flag}
                  RESULT_VARIABLE result
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr
                  TIMEOUT 5)
  if(NOT result STREQUAL "2")
    message(FATAL_ERROR "${flag}: exit status '${result}', expected 2\n"
                        "stderr: ${stderr}")
  endif()
  string(FIND "${stderr}" "invalid value for ${name}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: stderr does not name ${name}\n"
                        "stderr: ${stderr}")
  endif()
endforeach()
