# Run one binary and require its exit code and a message: stdout when
# the expected code is 0 (--help), else stderr (a usage error exits 2
# with its message there, never aborts).
#
#   cmake -DBIN=<binary> -DARGS=<arg|arg|...> -DSTATUS=<code>
#         -DEXPECT=<regex> -P usage_exit.cmake

string(REPLACE "|" ";" args "${ARGS}")
execute_process(
    COMMAND ${BIN} ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
    message(FATAL_ERROR
        "${BIN} ${args} exited with ${status}, not ${STATUS}:\n${err}")
endif()
set(stream err)
if(STATUS STREQUAL "0")
    set(stream out)
endif()
if(NOT ${stream} MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${BIN} ${args}: std${stream} lacks '${EXPECT}':\n${${stream}}")
endif()
