/* sva_verify --races input: a counter shared between an interrupt
   handler and a syscall that updates it with interrupts masked. */
extern void sva_register_syscall(long num, ...);
extern void sva_register_interrupt(long vec, ...);
extern void sva_cli(void);
extern void sva_sti(void);
long ticks = 0;
long tick_interrupt(long icp, long vec, long a2, long a3) {
  ticks = ticks + 1;
  return 0;
}
long sys_take_ticks(long a0, long a1, long a2, long a3) {
  sva_cli();
  long v = ticks;
  ticks = 0;
  sva_sti();
  return v;
}
void kmain(void) {
  sva_register_syscall(1, sys_take_ticks);
  sva_register_interrupt(0, tick_interrupt);
}
