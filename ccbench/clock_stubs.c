/* Monotonic nanosecond clock for the traced run's per-call spans.
   Unix.gettimeofday only resolves microseconds, too coarse for calls
   that take tens of nanoseconds. */

#include <time.h>
#include <caml/mlvalues.h>

intnat ccbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value ccbench_now_ns_byte(value unit)
{
  return Val_long(ccbench_now_ns(unit));
}
