"""Setuptools configuration.

There is no ``pyproject.toml``: keeping the whole configuration here lets
fully offline environments (no ``wheel`` package available, so PEP 660
editable installs fail) still do ``python setup.py develop`` or
``pip install -e . --no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Metropolis-Hastings Algorithms for Estimating "
        "Betweenness Centrality' (EDBT 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy powers the CSR snapshot (repro.graphs.csr) and the *_csr
    # kernels every estimator runs on; it is a hard requirement.
    install_requires=["numpy>=1.22"],
    # scipy upgrades the batched multi-source engine to sparse-matmul
    # sweeps (repro.shortest_paths.batch); without it the pure-numpy wave
    # kernels serve the same API.
    extras_require={
        "fast": ["scipy>=1.8"],
    },
)
