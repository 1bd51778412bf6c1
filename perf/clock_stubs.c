/* CLOCK_MONOTONIC in nanoseconds: the clock nexperf_spawn reports its
   start and end times in, so both sides of a measurement agree. */

#include <time.h>

#include <caml/mlvalues.h>

CAMLprim value nexperf_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
