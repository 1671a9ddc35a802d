# Run serve_bench's fixed quick mix and require its service document to
# equal ci/golden_serve_quick.json byte for byte. Service documents
# carry no host wall-clock fields, so the whole file is pinned.
#
#   cmake -DSERVE_BENCH=<serve_bench> -DGOLDEN=<golden.json>
#         -DOUT=<scratch.json> -P serve_golden.cmake

execute_process(
    COMMAND ${SERVE_BENCH} --cores 2 --requests 16 --rps 50000 --batch 64
            --mix convert:2,md5 --seed 7 --audit --json ${OUT}
    RESULT_VARIABLE status
    OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "serve_bench exited with ${status}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
