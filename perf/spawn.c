/* nexperf_spawn RESULT PROG [ARG...]

   Run PROG with this process's stdin, stdout and stderr, reap it with
   wait4(2), and write one line to the file RESULT:

     START_NS END_NS EXIT_CODE MAXRSS_KB

   (CLOCK_MONOTONIC around the fork and the reap; exit code 128 + s for a
   child killed by signal s; peak resident set size from wait4).

   Why a separate program: Linux carries a process's resident set from
   before exec(2) into its ru_maxrss, and a child spawned directly by the
   benchmark starts out sharing the benchmark's pages (hundreds of MB of
   generated input).  This helper is tiny, so the only RSS it hands on is
   its own.  SIGTERM, or the death of the benchmark, makes it kill the
   child and report as usual. */

#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static volatile pid_t child = 0;

static void on_term(int sig)
{
  (void)sig;
  if (child > 0) kill(child, SIGKILL);
}

static long long now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

int main(int argc, char **argv)
{
  struct sigaction sa;
  struct rusage ru;
  int status = 0, code;
  long long start, end;
  pid_t r;
  FILE *out;

  if (argc < 3) {
    fprintf(stderr, "usage: %s RESULT PROG [ARG...]\n", argv[0]);
    return 125;
  }
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_term;
  sigaction(SIGTERM, &sa, NULL);
  /* if the benchmark dies, stop the child too */
  prctl(PR_SET_PDEATHSIG, SIGTERM);

  start = now_ns();
  child = fork();
  if (child < 0) {
    perror("fork");
    return 126;
  }
  if (child == 0) {
    /* never outlive the benchmark */
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execv(argv[2], argv + 2);
    perror(argv[2]);
    _exit(127);
  }
  memset(&ru, 0, sizeof ru);
  do
    r = wait4(child, &status, 0, &ru);
  while (r < 0 && errno == EINTR);
  end = now_ns();
  if (r < 0) {
    perror("wait4");
    return 126;
  }
  if (WIFEXITED(status)) code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) code = 128 + WTERMSIG(status);
  else code = 255;

  out = fopen(argv[1], "w");
  if (out == NULL) {
    perror(argv[1]);
    return 126;
  }
  fprintf(out, "%lld %lld %d %ld\n", start, end, code, ru.ru_maxrss);
  if (fclose(out) != 0) return 126;
  return code;
}
