"""Open-loop benchmark of the explanation service, timed per layer from outside.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload against an in-process :class:`repro.service.ExplanationService`
and prints one JSON result as its last line; ``python3 perfbench/report.py``
runs every workload, untraced and traced, and prints all metrics as tables.
"""
