"""Workload parameters shared by the benchmark entry point (run.py) and its workers."""

# OpenBLAS, MKL and OpenMP read these when numpy loads.  The host has two
# cores shared with other jobs, and the load is one process with one thread.
BLAS_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# Every input comes from simulate.generate_gaussian_trial with these settings.
GAUSSIAN = {"mu_a": 3.5, "pi_a": 0.1, "rho": 0.5, "batch_size": 20,
            "alpha": 0.05}

WORKLOADS = {
    # One long stream per worker, uniform weights over K = n, step() only:
    # OnlineEBH and ELond on e-values, OnlineBH and OnlineStoreyBH on p-values.
    "stream": {"n": 10000, "lam": 0.5},
    # EToad on e-values and Toad (identity shape) on p-values, d_t = t + window.
    "deadlines": {"n": 1000, "window": 50},
    # One `arcfdr simulate --procedures all` job per worker, solver cache cold;
    # q, lam and alpha are the CLI defaults.
    "simulate": {"n": 200, "m": 20, "pi_a_grid": [0.1, 0.2, 0.3],
                 "q": 0.99, "lam": 0.5},
}

# Workers per run at least, whatever --seconds says, so that set-up time is a
# median of several fresh processes.
MIN_WORKERS = 3
